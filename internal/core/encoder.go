package core

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/mat"
	"repro/internal/query"
)

// QueryEncoder embeds query texts into the projected fast-search space of a
// Config without a corpus behind it. Embedding is corpus-independent (the
// space and text encoder are seeded, never trained), so a caller with no
// system at hand scores candidate vectors exactly as a system would.
type QueryEncoder struct {
	space *embed.Space
	text  *embed.TextEncoder
}

// NewQueryEncoder builds the encoder for a (resolved or unresolved) Config;
// it must match the Seed/Dim/ProjDim of the systems whose vectors it scores.
func NewQueryEncoder(cfg Config) *QueryEncoder {
	cfg = cfg.withDefaults()
	space := embed.NewSpace(cfg.Dim, cfg.ProjDim, cfg.Seed^0x5bace)
	return &QueryEncoder{space: space, text: &embed.TextEncoder{Space: space}}
}

// Encode parses and embeds a query text, rejecting texts with no
// recognised vocabulary term (ErrNoRecognisedTerms).
func (e *QueryEncoder) Encode(text string) (mat.Vec, error) {
	parsed := query.Parse(text)
	qvec := e.text.FastVec(parsed)
	if mat.Norm(qvec) == 0 {
		return nil, fmt.Errorf("core: query %q: %w", text, ErrNoRecognisedTerms)
	}
	return e.space.Project(qvec), nil
}
