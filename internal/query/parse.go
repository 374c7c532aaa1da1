// Package query parses the natural-language object queries of the paper's
// workload (Tables II and VI) into structured vocabulary terms.
//
// The parser is deliberately rule-based: lower-case tokenisation, greedy
// longest-phrase matching against the vocabulary ("side by side" before
// "side"), synonym folding, and stop-word skipping. Terms are grouped by
// role so downstream encoders can honour the paper's design: the fast-search
// text encoder keeps subject, attribute and context terms but drops
// relations (Section VI-A), while the cross-modality rerank sees every term
// as its own token.
package query

import (
	"slices"
	"strings"

	"repro/internal/vocab"
)

// Parsed is a structured query.
type Parsed struct {
	// Raw is the original query string.
	Raw string
	// Terms lists every matched term in first-occurrence order without
	// duplicates.
	Terms []vocab.Term
	// Subject holds class terms ("car", "suv", "woman").
	Subject []vocab.Term
	// Attrs holds colour/size/clothing modifiers of the subject.
	Attrs []vocab.Term
	// Context holds scene terms ("road", "intersection").
	Context []vocab.Term
	// Relations holds spatial-relation and behaviour terms; these demand
	// cross-modality reasoning and are excluded from the fast vector.
	Relations []vocab.Term
}

// Complexity grades a query the way the motivation experiment does
// (Fig. 2): Simple is a bare predefined class, Normal adds novel attribute
// features, Complex involves open-world classes or spatial relationships.
type Complexity int

const (
	// Simple queries name only predefined classes.
	Simple Complexity = iota
	// Normal queries add attribute or context features to known classes.
	Normal
	// Complex queries use open-world classes, relations or behaviours.
	Complex
)

// String returns the grade name.
func (c Complexity) String() string {
	switch c {
	case Simple:
		return "simple"
	case Normal:
		return "normal"
	default:
		return "complex"
	}
}

var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "in": true, "on": true, "of": true,
	"with": true, "and": true, "is": true, "at": true, "to": true,
	"another": true, "other": true, "both": true, "does": true, "do": true,
	"its": true, "it": true, "while": true, "wearing": true, "body": true,
	"colored": true, "her": true, "his": true, "positioned": true,
}

// phrase is one multi-word surface form split into its words, with the
// term it resolves to.
type phrase struct {
	words []string
	term  vocab.Term
}

// phrasesByFirst is the greedy matcher's table, built once from the static
// vocabulary: every resolvable phrase of vocab.Phrases() under its first
// word, each list in vocab's longest-first order. Only phrases starting
// with the token at hand can match there, so the first hit in its list is
// the first hit in the whole longest-first list — the maximal match.
var phrasesByFirst = buildPhraseTable()

func buildPhraseTable() map[string][]phrase {
	table := make(map[string][]phrase)
	for _, ph := range vocab.Phrases() {
		t, ok := vocab.Lookup(ph)
		if !ok {
			continue
		}
		words := strings.Split(ph, " ")
		table[words[0]] = append(table[words[0]], phrase{words: words, term: t})
	}
	return table
}

// matchPhrase returns the longest phrase that tokens start with, or nil.
func matchPhrase(tokens []string) *phrase {
	list := phrasesByFirst[tokens[0]]
	for i := range list {
		ph := &list[i]
		if len(ph.words) <= len(tokens) && slices.Equal(ph.words[1:], tokens[1:len(ph.words)]) {
			return ph
		}
	}
	return nil
}

// Parse analyses a query string. Unknown tokens are ignored; an empty query
// yields an empty Parsed.
func Parse(raw string) Parsed {
	p := Parsed{Raw: raw}
	add := func(t vocab.Term) {
		for _, have := range p.Terms {
			if have.Name == t.Name {
				return
			}
		}
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

	tokens := tokenize(raw)
	for i := 0; i < len(tokens); {
		// Greedy longest-phrase match at position i.
		if ph := matchPhrase(tokens[i:]); ph != nil {
			add(ph.term)
			i += len(ph.words)
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

// tokenize lower-cases the input and splits on whitespace, trimming
// punctuation but keeping in-word hyphens ("yellow-green", "t-shirt").
func tokenize(s string) []string {
	s = strings.ToLower(s)
	fields := strings.Fields(s)
	out := make([]string, 0, len(fields))
	for _, f := range fields {
		f = strings.Trim(f, ".,!?;:\"'()[]")
		if f != "" {
			out = append(out, f)
		}
	}
	return out
}

// Grade classifies the parsed query for the motivation experiment.
func (p Parsed) Grade() Complexity {
	for _, t := range p.Subject {
		if !t.COCO {
			return Complex
		}
	}
	if len(p.Relations) > 0 {
		// Pure behaviours on known classes grade Normal; spatial
		// relations grade Complex.
		for _, t := range p.Relations {
			if t.Kind == vocab.KindRelation {
				return Complex
			}
		}
		if len(p.Attrs) > 0 || len(p.Context) > 0 {
			return Normal
		}
	}
	if len(p.Attrs) > 0 || len(p.Context) > 0 {
		return Normal
	}
	return Simple
}

// FastTerms returns the terms that enter the single fast-search embedding:
// subject, attributes and context, but never relations or behaviours —
// mirroring the paper's decision to omit "intricate relationships" from the
// preliminary retrieval vector.
func (p Parsed) FastTerms() []vocab.Term {
	out := make([]vocab.Term, 0, len(p.Subject)+len(p.Attrs)+len(p.Context))
	out = append(out, p.Subject...)
	out = append(out, p.Attrs...)
	out = append(out, p.Context...)
	return out
}

// HasTermOutside reports whether the query uses any term not in allowed;
// closed-vocabulary baselines use this to detect unsupported queries.
func (p Parsed) HasTermOutside(allowed map[string]bool) bool {
	for _, t := range p.Terms {
		if !allowed[t.Name] {
			return true
		}
	}
	return false
}
