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
// a defined complexity grade — and into exactly what parseReference, the
// table-free parser, makes of it.
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
		if want := parseReference(text); !reflect.DeepEqual(p, want) {
			t.Fatalf("Parse(%q) differs from the reference parser:\n%+v\n%+v", text, p, want)
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

// parseReference is the parser before the phrase table: it re-splits every
// phrase of vocab.Phrases() at every token position and tracks seen terms
// in a map. Parse must agree with it on every input.
func parseReference(raw string) Parsed {
	p := Parsed{Raw: raw}
	tokens := tokenize(raw)
	seen := make(map[string]bool)

	add := func(t vocab.Term) {
		if seen[t.Name] {
			return
		}
		seen[t.Name] = true
		p.Terms = append(p.Terms, t)
		switch t.Kind {
		case vocab.KindClass:
			p.Subject = append(p.Subject, t)
		case vocab.KindColor, vocab.KindSize, vocab.KindClothing:
			p.Attrs = append(p.Attrs, t)
		case vocab.KindContext:
			p.Context = append(p.Context, t)
		case vocab.KindRelation, vocab.KindBehavior:
			p.Relations = append(p.Relations, t)
		}
	}

	phrases := vocab.Phrases()
	for i := 0; i < len(tokens); {
		matched := false
		for _, ph := range phrases {
			words := strings.Split(ph, " ")
			if i+len(words) > len(tokens) {
				continue
			}
			ok := true
			for j, w := range words {
				if tokens[i+j] != w {
					ok = false
					break
				}
			}
			if ok {
				if t, found := vocab.Lookup(ph); found {
					add(t)
					i += len(words)
					matched = true
					break
				}
			}
		}
		if matched {
			continue
		}
		if !stopwords[tokens[i]] {
			if t, found := vocab.Lookup(tokens[i]); found {
				add(t)
			}
		}
		i++
	}
	return p
}

// BenchmarkParse parses the benchmark corpus' query texts, the mix every
// /query pays once per shard leg.
func BenchmarkParse(b *testing.B) {
	var texts []string
	for _, ds := range datasets.All(datasets.Config{Seed: 1, Scale: 0.01}) {
		for _, q := range ds.Queries {
			texts = append(texts, q.Text)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parse(texts[i%len(texts)])
	}
}
