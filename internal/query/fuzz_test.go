package query

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/vocab"
)

// FuzzParse: every /query text reaches Parse, so any string must parse
// without panicking, deterministically, into terms the vocabulary knows and
// a defined complexity grade.
func FuzzParse(f *testing.F) {
	cfg := datasets.Config{Seed: 1, Scale: 0.01}
	for _, ds := range append(datasets.All(cfg), datasets.ActivityNetQA(cfg)) {
		for _, q := range ds.Queries {
			f.Add(q.Text)
		}
	}
	for _, texts := range datasets.MotivationQueries() {
		for _, text := range texts {
			f.Add(text)
		}
	}
	for _, text := range []string{
		"", " ", "\t\n", "?!.,;:", "... --- !!!", "()[]\"'",
		strings.Repeat("A red car side by side with another car. ", 100)[:4096],
		"\xff\xfe car \xc3\x28 road", "red\x00car", "SIDE BY SIDE", "İstanbul car",
	} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p := Parse(text)
		if again := Parse(text); !reflect.DeepEqual(p, again) {
			t.Fatalf("Parse(%q) is not deterministic:\n%+v\n%+v", text, p, again)
		}
		for _, term := range p.FastTerms() {
			if known, ok := vocab.Lookup(term.Name); !ok || !reflect.DeepEqual(known, term) {
				t.Fatalf("Parse(%q): fast term %+v is not the vocabulary's %q", text, term, term.Name)
			}
		}
		if g := p.Grade(); g != Simple && g != Normal && g != Complex {
			t.Fatalf("Parse(%q) grades %d, not a defined complexity", text, g)
		}
	})
}
