// Kernel tier selection.
//
// The scoring kernels come in tiers. Every tier implements the SAME
// canonical 4-lane reduction order per row (kernels.go), so switching
// tiers changes speed only — results stay bit-identical. The tiers differ
// in how many rows they score per pass and which instruction set they use:
//
//	purego  portable Go, one row at a time through dotKernel      (reference)
//	sse2    amd64 baseline assembly, 4 rows per pass              (bit-identical)
//	neon    arm64 baseline assembly, 4 rows per pass              (bit-identical)
//	avx2    amd64 AVX2 assembly, 8 rows per pass (4-lane per row) (bit-identical)
//
// Detection order is widest-first: avx2 (when the CPU and OS support it),
// then the architecture baseline (sse2 on amd64, neon on arm64), then
// purego. The avx2 tier deliberately does NOT use FMA: a fused
// multiply-add rounds once where MULPS+ADDPS round twice, which would
// break bit-identity with the SSE2/portable tiers. Width comes from
// scoring more rows per memory pass, never from changing any row's
// reduction order.
//
// The same tier selects the GEMM micro-kernel (gemm.go): a 4×16 register
// tile on avx2, 4×8 on sse2, the AXPY formulation on neon and purego — all
// bit-identical to the naive increasing-k triple loop — and GELU's body:
// eight lanes of the portable formula's exact operation sequence on avx2
// (gelu_amd64.s), the portable loop everywhere else.
//
// The active tier can be pinned with SetKernelTier (the lovod/lovo
// -kernels flag) or the LOVO_KERNELS environment variable — deployments
// pin a tier for reproducible triage, and bit-identity investigations
// force the purego reference path.

package mat

import (
	"fmt"
	"os"
	"testing"
)

// Kernel tier names, as accepted by SetKernelTier and the LOVO_KERNELS
// environment variable. TierAuto is a request, not a tier: it resolves to
// the widest tier the host supports.
const (
	TierAuto   = "auto"
	TierAVX2   = "avx2"
	TierSSE2   = "sse2"
	TierNEON   = "neon"
	TierPurego = "purego"
)

// tierID orders the tiers narrow→wide so "auto" can pick the maximum
// supported one.
type tierID int

const (
	tidPurego tierID = iota
	tidBaseline
	tidAVX2
)

// activeTier is the currently selected tier. It is set once at init (from
// detection plus LOVO_KERNELS) and by SetKernelTier; changing it while
// other goroutines score is a race.
var activeTier tierID

// envTierErr records an invalid or unsupported LOVO_KERNELS value seen at
// init. init cannot return it, so a program keeps the detected tier and the
// error is surfaced through KernelTierEnvError for the daemons to report at
// boot. A test or benchmark binary has no such report and would silently
// run the widest tier under a label naming another, so it exits at once
// instead, naming the value.
var envTierErr error

func init() {
	activeTier = bestTier()
	if v := os.Getenv("LOVO_KERNELS"); v != "" {
		if _, err := SetKernelTier(v); err != nil {
			envTierErr = err
			if testing.Testing() {
				fmt.Fprintf(os.Stderr, "LOVO_KERNELS=%s: %v\n", v, err)
				os.Exit(2)
			}
		}
	}
}

// bestTier returns the widest tier this host supports.
func bestTier() tierID {
	if hasAVX2 {
		return tidAVX2
	}
	if hasBaselineASM {
		return tidBaseline
	}
	return tidPurego
}

// tierName maps a tierID to its public name on this architecture.
func tierName(t tierID) string {
	switch t {
	case tidAVX2:
		return TierAVX2
	case tidBaseline:
		return baselineTierName
	default:
		return TierPurego
	}
}

// KernelTier reports the name of the active kernel tier: avx2, sse2, neon
// or purego.
func KernelTier() string { return tierName(activeTier) }

// KernelTiers lists the tiers this host supports, widest first — the
// detection order of TierAuto.
func KernelTiers() []string {
	var ts []string
	if hasAVX2 {
		ts = append(ts, TierAVX2)
	}
	if hasBaselineASM {
		ts = append(ts, baselineTierName)
	}
	return append(ts, TierPurego)
}

// SetKernelTier selects the kernel tier by name ("auto" resolves to the
// widest supported tier), returning the previously active tier's name. It
// fails if the named tier is unknown or is not supported by this host, so
// a deployment that pins -kernels=avx2 fails fast on a machine without
// AVX2 rather than silently degrading. It must not be called while other
// goroutines are scoring.
func SetKernelTier(name string) (prev string, err error) {
	prev = tierName(activeTier)
	var want tierID
	switch name {
	case TierAuto:
		want = bestTier()
	case TierPurego:
		want = tidPurego
	case TierAVX2:
		if !hasAVX2 {
			return prev, fmt.Errorf("mat: kernel tier %q not supported by this CPU (have %v)", name, KernelTiers())
		}
		want = tidAVX2
	case TierSSE2, TierNEON:
		if !hasBaselineASM || name != baselineTierName {
			return prev, fmt.Errorf("mat: kernel tier %q not supported on this architecture (have %v)", name, KernelTiers())
		}
		want = tidBaseline
	default:
		return prev, fmt.Errorf("mat: unknown kernel tier %q (want auto|avx2|sse2|neon|purego)", name)
	}
	activeTier = want
	return prev, nil
}

// KernelTierEnvError returns the error from parsing LOVO_KERNELS at init,
// if any. The daemons report it at boot; an unset or valid variable yields
// nil.
func KernelTierEnvError() error { return envTierErr }
