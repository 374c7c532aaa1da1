// Package vocab defines the attribute vocabulary of the synthetic video
// world: object classes, colours, sizes, clothing, contexts, relations and
// behaviours.
//
// Every entity in the reproduction speaks this vocabulary. Synthetic objects
// carry term sets as ground truth, the encoders embed terms into the shared
// vision/text space, the query parser maps natural-language strings onto
// terms, and the closed-vocabulary baselines (VOCAL, MIRIS, FiGO) are
// restricted to the subset flagged as belonging to the predefined MSCOCO
// label set — which is exactly how the paper distinguishes "simple" queries
// (predefined classes) from "normal" and "complex" ones (novel classes,
// detailed descriptions, spatial relationships).
package vocab

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind classifies a vocabulary term. The query parser uses kinds to group
// terms into subject / attribute / context / relation roles, and the fast
// search encoder uses them to decide which terms enter the single query
// vector (relations are deliberately omitted, Section VI-A of the paper).
type Kind int

const (
	// KindClass names an object category ("car", "person", "suv").
	KindClass Kind = iota
	// KindColor names a colour attribute ("red", "yellow-green").
	KindColor
	// KindSize names a size attribute ("large", "small").
	KindSize
	// KindClothing names worn items or body descriptions ("black t-shirt").
	KindClothing
	// KindContext names scene or location context ("road", "intersection").
	KindContext
	// KindRelation names a spatial relationship between objects
	// ("side by side", "next to"); these need cross-modality reasoning.
	KindRelation
	// KindBehavior names what an object is doing ("walking", "driving").
	KindBehavior
)

// String returns the lower-case kind name.
func (k Kind) String() string {
	switch k {
	case KindClass:
		return "class"
	case KindColor:
		return "color"
	case KindSize:
		return "size"
	case KindClothing:
		return "clothing"
	case KindContext:
		return "context"
	case KindRelation:
		return "relation"
	case KindBehavior:
		return "behavior"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Term is one vocabulary entry.
type Term struct {
	// Name is the canonical lower-case term, with spaces for phrases
	// ("side by side").
	Name string
	// Kind classifies the term.
	Kind Kind
	// COCO marks terms inside the predefined MSCOCO-style detector label
	// set available to QA-index and QD-search baselines.
	COCO bool
	// Related lists weighted similarities to other terms; the embedding
	// space mixes these directions so that, e.g., "suv" is retrievable by
	// a "car" query with reduced score.
	Related []Relation
}

// Relation is a weighted link between two terms.
type Relation struct {
	Name   string
	Weight float32
}

var registry = buildRegistry()

func buildRegistry() map[string]Term {
	c := func(name string, coco bool, related ...Relation) Term {
		return Term{Name: name, Kind: KindClass, COCO: coco, Related: related}
	}
	terms := []Term{
		// --- Classes. COCO flags follow the MSCOCO label list.
		c("person", true),
		c("car", true),
		c("bus", true),
		c("truck", true, Relation{"car", 0.2}),
		c("bicycle", true),
		c("dog", true),
		c("bag", true), // MSCOCO "handbag"
		c("suv", false, Relation{"car", 0.55}),
		c("woman", false, Relation{"person", 0.65}),
		c("man", false, Relation{"person", 0.65}),

		// --- Colours.
		{Name: "red", Kind: KindColor},
		{Name: "black", Kind: KindColor, Related: []Relation{{"dark", 0.5}}},
		{Name: "white", Kind: KindColor, Related: []Relation{{"light", 0.5}}},
		{Name: "green", Kind: KindColor, Related: []Relation{{"yellow-green", 0.4}}},
		{Name: "blue", Kind: KindColor},
		{Name: "yellow", Kind: KindColor},
		{Name: "yellow-green", Kind: KindColor, Related: []Relation{{"green", 0.4}}},
		{Name: "grey", Kind: KindColor},
		{Name: "light", Kind: KindColor, Related: []Relation{{"white", 0.5}}},
		{Name: "dark", Kind: KindColor, Related: []Relation{{"black", 0.5}}},
		{Name: "red-hair", Kind: KindColor},

		// --- Sizes.
		{Name: "large", Kind: KindSize},
		{Name: "small", Kind: KindSize},

		// --- Clothing and carried items.
		{Name: "t-shirt", Kind: KindClothing},
		{Name: "jeans", Kind: KindClothing},
		{Name: "suit", Kind: KindClothing},
		{Name: "dress", Kind: KindClothing},
		{Name: "skirt", Kind: KindClothing},
		{Name: "hat", Kind: KindClothing},
		{Name: "life jacket", Kind: KindClothing},
		{Name: "clothing", Kind: KindClothing},
		{Name: "white roof", Kind: KindClothing}, // vehicle part attribute
		{Name: "cargo", Kind: KindClothing},      // carried-load attribute

		// --- Contexts.
		{Name: "road", Kind: KindContext, COCO: true, Related: []Relation{{"street", 0.6}}},
		{Name: "street", Kind: KindContext, COCO: true, Related: []Relation{{"road", 0.6}}},
		{Name: "intersection", Kind: KindContext, Related: []Relation{{"road", 0.3}}},
		{Name: "sidewalk", Kind: KindContext},
		{Name: "inside car", Kind: KindContext},
		{Name: "room", Kind: KindContext},
		{Name: "meadow", Kind: KindContext},
		{Name: "outdoors", Kind: KindContext},
		{Name: "beach", Kind: KindContext},

		// --- Relations (require reasoning over object pairs / layout).
		{Name: "side by side", Kind: KindRelation},
		{Name: "next to", Kind: KindRelation},
		{Name: "center of the road", Kind: KindRelation},
		{Name: "holding", Kind: KindRelation},
		{Name: "filled with", Kind: KindRelation},

		// --- Behaviours.
		{Name: "walking", Kind: KindBehavior},
		{Name: "driving", Kind: KindBehavior},
		{Name: "riding", Kind: KindBehavior},
		{Name: "sitting", Kind: KindBehavior},
		{Name: "smiling", Kind: KindBehavior},
		{Name: "dancing", Kind: KindBehavior},
		{Name: "parked", Kind: KindBehavior},
		{Name: "standing", Kind: KindBehavior},
	}
	m := make(map[string]Term, len(terms))
	for _, t := range terms {
		if _, dup := m[t.Name]; dup {
			panic("vocab: duplicate term " + t.Name)
		}
		m[t.Name] = t
	}
	// Validate relation targets exist.
	for _, t := range terms {
		for _, r := range t.Related {
			if _, ok := m[r.Name]; !ok {
				panic("vocab: related term missing: " + r.Name)
			}
		}
	}
	return m
}

// synonyms maps surface forms seen in queries to canonical terms.
var synonyms = map[string]string{
	"automobile":                           "car",
	"vehicle":                              "car",
	"people":                               "person",
	"gray":                                 "grey",
	"tshirt":                               "t-shirt",
	"t shirt":                              "t-shirt",
	"handbag":                              "bag",
	"light-colored":                        "light",
	"dark-colored":                         "dark",
	"red hair":                             "red-hair",
	"red-haired":                           "red-hair",
	"clothes":                              "clothing",
	"ride":                                 "riding",
	"rides":                                "riding",
	"walk":                                 "walking",
	"walks":                                "walking",
	"drive":                                "driving",
	"drives":                               "driving",
	"drove":                                "driving",
	"sit":                                  "sitting",
	"sits":                                 "sitting",
	"smile":                                "smiling",
	"smiles":                               "smiling",
	"dance":                                "dancing",
	"dances":                               "dancing",
	"park":                                 "parked",
	"parks":                                "parked",
	"parking":                              "parked",
	"beside":                               "next to",
	"inside a car":                         "inside car",
	"inside the car":                       "inside car",
	"centre of the road":                   "center of the road",
	"center of road":                       "center of the road",
	"in the center of the road":            "center of the road",
	"positioned in the center of the road": "center of the road",
}

// Lookup resolves a surface form (canonical name or synonym) to its Term.
func Lookup(name string) (Term, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	if canon, ok := synonyms[name]; ok {
		name = canon
	}
	t, ok := registry[name]
	return t, ok
}

// MustLookup is Lookup that panics on unknown terms; used by generators whose
// vocabulary is fixed at compile time.
func MustLookup(name string) Term {
	t, ok := Lookup(name)
	if !ok {
		panic("vocab: unknown term " + name)
	}
	return t
}

// Terms returns all canonical terms sorted by name.
func Terms() []Term {
	out := make([]Term, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Phrases returns every multi-word surface form (canonical names and
// synonyms), longest first and then alphabetical, for greedy phrase
// matching in the parser. The registry is static, so the list is built
// once; each call returns a fresh copy.
func Phrases() []string { return slices.Clone(phrases) }

var phrases = buildPhrases()

func buildPhrases() []string {
	var out []string
	for name := range registry {
		if strings.Contains(name, " ") {
			out = append(out, name)
		}
	}
	for s := range synonyms {
		if strings.Contains(s, " ") {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(a, b string) int {
		if c := cmp.Compare(strings.Count(b, " "), strings.Count(a, " ")); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	return out
}

// COCOClasses returns the class terms inside the predefined detector label
// set, sorted by name. This is the whole world visible to the QA-index and
// QD-search baselines' detectors.
func COCOClasses() []string {
	var out []string
	for _, t := range registry {
		if t.Kind == KindClass && t.COCO {
			out = append(out, t.Name)
		}
	}
	sort.Strings(out)
	return out
}

// ClosestCOCO maps any class term to the COCO class a predefined detector
// would report for it, or "" if the object is invisible to such detectors.
// Open-world classes degrade to their nearest predefined ancestor: an SUV is
// detected as a "car", a woman as a "person".
func ClosestCOCO(class string) string {
	t, ok := Lookup(class)
	if !ok || t.Kind != KindClass {
		return ""
	}
	if t.COCO {
		return t.Name
	}
	best, bestW := "", float32(0)
	for _, r := range t.Related {
		rt, ok := registry[r.Name]
		if ok && rt.Kind == KindClass && rt.COCO && r.Weight > bestW {
			best, bestW = rt.Name, r.Weight
		}
	}
	return best
}
