package imi

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/ann"
	"repro/internal/mat"
)

// buildRef builds an index over n rows whose IDs are a seeded permutation
// of 1..3n spread out of position order, so a tie broken by position
// instead of by ID shows. With ties set, every coordinate is an integer in
// [-2, 2] and one row in three repeats an earlier one, so exact scores,
// ADC scores and votes all collide often.
func buildRef(tb testing.TB, n int, cfg Config, ties bool, seed uint64) *Index {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	rows := ann.NewRows(dim)
	used := map[int64]bool{}
	for i := 0; i < n; i++ {
		id := int64(1 + rng.IntN(3*n))
		for used[id] {
			id = int64(1 + rng.IntN(3*n))
		}
		used[id] = true
		v := mat.UnitGaussianVec(dim, seed<<20|uint64(i))
		if ties {
			if i > 0 && rng.IntN(3) == 0 {
				v = mat.Vec(append([]float32(nil), rows.Row(rng.IntN(i))...))
			} else {
				for j := range v {
					v[j] = float32(rng.IntN(5) - 2)
				}
			}
		}
		rows.Append(id, v)
	}
	ix, err := Build(rows, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// queryFor returns a query of the same kind as buildRef's rows.
func queryFor(rng *rand.Rand, ties bool, seed uint64) mat.Vec {
	q := mat.UnitGaussianVec(dim, seed)
	if ties {
		for j := range q {
			q[j] = float32(rng.IntN(5) - 2)
		}
	}
	return q
}

// sameAnswer fails unless got equals want bit for bit, nil-ness included.
func sameAnswer(tb testing.TB, what string, got, want []mat.Scored) {
	tb.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		tb.Fatalf("%s: got %d hits (nil %v), want %d (nil %v)", what, len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
			tb.Fatalf("%s: hit %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestSearchMatchesReference pins the dense-vote Search to the map-based
// one it replaced, bit for bit. NProbe = M makes every row a candidate, so
// the sizes 4k-1, 4k and 4k+1 put the shortlist exactly at the edge
// between the branch that skips ADC and the one that selects by it. With
// M = 1 every ADC score is equal, so ADC drops the highest IDs whatever
// their exact scores, and a shortlist one row too long shows.
func TestSearchMatchesReference(t *testing.T) {
	type shape struct {
		n    int
		m    int
		ties bool
	}
	shapes := []shape{{9, 4, false}, {60, 8, true}, {300, 16, false}, {300, 16, true}, {1200, 32, false}, {1200, 32, true}}
	for _, k := range []int{1, 5, 100} {
		for _, n := range []int{4*k - 1, 4 * k, 4*k + 1} {
			if n >= 2 {
				shapes = append(shapes, shape{n, 4, false}, shape{n, 4, true}, shape{n, 1, false})
			}
		}
	}
	skipped, selected := 0, 0 // NProbe = M searches per shortlist branch
	for si, sh := range shapes {
		ix := buildRef(t, sh.n, Config{P: 4, M: sh.m, Seed: uint64(si)}, sh.ties, uint64(si)+1)
		m := len(ix.pq.Codebooks[0])
		rng := rand.New(rand.NewPCG(uint64(si), 77))
		for qi := 0; qi < 6; qi++ {
			q := queryFor(rng, sh.ties, uint64(1000*si+qi))
			for _, k := range []int{1, 5, 100} {
				for _, np := range []int{0, 1, 3, m} {
					prm := ann.Params{NProbe: np}
					want := refSearch(ix, q, k, prm)
					sameAnswer(t, "search", ix.Search(q, k, prm), want)
					if np == m && ix.Len() > 4*k {
						selected++
					} else if np == m {
						skipped++
					}
				}
			}
		}
	}
	if skipped == 0 || selected == 0 {
		t.Fatalf("both shortlist branches must run: %d skipped ADC, %d selected by it", skipped, selected)
	}

	// Equal exact scores whose votes differ, straddling the k cut, with
	// and without ADC: the vote, not the ID, decides who makes the answer.
	var decided [2]int // searches where it did: [skipped ADC, selected by it]
	for si, n := range []int{30, 60, 300} {
		ix := buildStraddle(t, n, Config{P: 4, M: 8, Seed: uint64(si)}, uint64(si)+40)
		rng := rand.New(rand.NewPCG(uint64(si), 78))
		for qi := 0; qi < 6; qi++ {
			q := make(mat.Vec, dim)
			for j := range 3 * dim / 4 { // zero on the subspace the rows vary on
				q[j] = float32(rng.IntN(5) - 2)
			}
			for _, k := range []int{5, 8, 12, 20, 100} {
				for _, np := range []int{1, 2, 3} {
					prm := ann.Params{NProbe: np}
					sameAnswer(t, "straddle", ix.Search(q, k, prm), refSearch(ix, q, k, prm))
					if decides, adc := voteDecides(ix, q, k, prm); decides && adc {
						decided[1]++
					} else if decides {
						decided[0]++
					}
				}
			}
		}
	}
	if decided[0] == 0 || decided[1] == 0 {
		t.Fatalf("the vote must decide the k cut on both shortlist branches: %d skipped ADC, %d selected by it", decided[0], decided[1])
	}
}

// buildStraddle builds an index over n rows, each one of three integer
// patterns on subspaces 0–2 and random integers on subspace 3. A query
// that is zero on subspace 3 scores a pattern's rows equal, exactly and by
// ADC, while their subspace-3 codes, and so their votes, differ: every
// centroid of that subspace ties at 0, so S_A takes the lowest-numbered.
func buildStraddle(tb testing.TB, n int, cfg Config, seed uint64) *Index {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	var patterns [3][3 * dim / 4]float32
	for i := range patterns {
		for j := range patterns[i] {
			patterns[i][j] = float32(rng.IntN(5) - 2)
		}
	}
	rows := ann.NewRows(dim)
	for i, id := range rng.Perm(3 * n)[:n] {
		v := append(mat.Vec(nil), patterns[i%3][:]...)
		for len(v) < dim {
			v = append(v, float32(rng.IntN(5)-2))
		}
		rows.Append(int64(id+1), v)
	}
	ix, err := Build(rows, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// voteDecides reports whether the patch-ID vote decides which candidates
// make Search's k cut — ranking the shortlist by score and ID alone would
// keep another set — and whether ADC selected that shortlist. It rebuilds
// S_A, the votes and the shortlist by full sorts.
func voteDecides(ix *Index, q mat.Vec, k int, p ann.Params) (decides, adc bool) {
	table := ix.pq.DotTableInto(make([]float32, ix.pq.TableLen()), q)
	a := cmp.Or(max(p.NProbe, 0), 8)
	votes := map[int32]uint8{}
	for sp := 0; sp < ix.pq.P; sp++ {
		var cents []mat.Scored
		for m, s := range table.Row(sp) {
			cents = append(cents, mat.Scored{ID: int64(m), Score: s})
		}
		mat.SortScoredDesc(cents)
		for _, c := range cents[:min(a, len(cents))] {
			for _, pos := range ix.lists[sp][c.ID] {
				votes[pos]++
			}
		}
	}
	var cands []cand
	for pos, v := range votes {
		cands = append(cands, cand{mat.Scored{ID: ix.rows.ID(int(pos))}, pos, v})
	}
	if adc = len(cands) > 4*k; adc {
		for i, c := range cands {
			cands[i].Score = ix.pq.ApproxDotPacked(table, ix.codeAt(c.pos))
		}
		slices.SortFunc(cands, func(a, b cand) int { return refOrder(a, b, false) })
		cands = cands[:4*k]
	}
	for i, c := range cands {
		cands[i].Score = mat.Dot(q, ix.rows.Row(int(c.pos)))
	}
	if len(cands) <= k {
		return false, adc
	}
	cut := func(withVotes bool) []int64 {
		slices.SortFunc(cands, func(a, b cand) int { return refOrder(a, b, withVotes) })
		ids := make([]int64, k)
		for i := range ids {
			ids[i] = cands[i].ID
		}
		slices.Sort(ids)
		return ids
	}
	return !slices.Equal(cut(true), cut(false)), adc
}

// refOrder is a candidate order spelled out with cmp: descending score,
// then descending vote when withVotes, then ascending ID.
func refOrder(a, b cand, withVotes bool) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := cmp.Compare(b.votes, a.votes); withVotes && c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TestSelectCandsMatchesSort checks the candidate quickselect in both
// orders against a full sort on inputs whose scores and votes tie heavily:
// s[:k] must hold the sorted prefix as a set, with the k-th item at s[k-1],
// for k = 1, len-1 and len. sortCands must equal the full sort.
func TestSelectCandsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 3, 5, 13, 64, 300} {
		for rep := 0; rep < 20; rep++ {
			src := make([]cand, n)
			for i, id := range rng.Perm(3 * n)[:n] {
				src[i] = cand{mat.Scored{ID: int64(id), Score: float32(rng.IntN(4))}, int32(i), uint8(1 + rng.IntN(3))}
			}
			for _, by := range []uint8{byID, byVotes} {
				want := slices.Clone(src)
				slices.SortFunc(want, func(a, b cand) int { return refOrder(a, b, by == byVotes) })
				for _, k := range []int{1, n - 1, n} {
					if k < 1 {
						continue
					}
					got := slices.Clone(src)
					selectCands(got, k, by)
					prefix := slices.Clone(got[:k])
					slices.SortFunc(prefix, func(a, b cand) int { return refOrder(a, b, by == byVotes) })
					if got[k-1] != want[k-1] || !slices.Equal(prefix, want[:k]) {
						t.Fatalf("n=%d order=%#x k=%d: s[k-1] = %+v, want %+v; prefix %+v, want %+v",
							n, by, k, got[k-1], want[k-1], prefix, want[:k])
					}
				}
				if by == byVotes {
					got := slices.Clone(src)
					sortCands(got)
					if !slices.Equal(got, want) {
						t.Fatalf("n=%d: sortCands = %+v, want %+v", n, got, want)
					}
				}
			}
		}
	}
}

// FuzzIMISearch compares Search with refSearch on fuzzed index shapes,
// queries and parameters.
func FuzzIMISearch(f *testing.F) {
	f.Add(uint64(1), uint16(300), uint8(16), uint8(5), uint8(3), false)
	f.Add(uint64(2), uint16(401), uint8(4), uint8(100), uint8(4), true)
	f.Add(uint64(3), uint16(50), uint8(8), uint8(1), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, m, k, np uint8, ties bool) {
		rows := 1 + int(n)%600
		ix := buildRef(t, rows, Config{P: 4, M: 1 + int(m)%32, Seed: seed}, ties, seed)
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		for qi := 0; qi < 4; qi++ {
			q := queryFor(rng, ties, seed+uint64(qi))
			prm := ann.Params{NProbe: int(int8(np)) % 40}
			sameAnswer(t, "search", ix.Search(q, int(k), prm), refSearch(ix, q, int(k), prm))
		}
	})
}

// BenchmarkSearch times one approximate Search against refSearch at the
// default probe width: a 512-row segment, whose candidates all fit the 4k
// shortlist; a 2048-row one, a compacted streaming segment and the first
// size where ADC selects the shortlist; and an 8192-row one.
func BenchmarkSearch(b *testing.B) {
	for _, n := range []int{512, 2048, 8192} {
		ix := buildRef(b, n, Config{P: 4, M: 64, Seed: 1}, false, 1)
		q := mat.UnitGaussianVec(dim, 5)
		for _, impl := range []struct {
			name   string
			search func(q mat.Vec, k int, p ann.Params) []mat.Scored
		}{
			{"dense", ix.Search},
			{"ref", func(q mat.Vec, k int, p ann.Params) []mat.Scored { return refSearch(ix, q, k, p) }},
		} {
			b.Run(fmt.Sprintf("rows=%d/%s", n, impl.name), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					impl.search(q, 100, ann.Params{})
				}
			})
		}
	}
}
