package predindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapSource probes from a plain attribute map.
type mapSource map[string]Value

func (m mapSource) ProbeAttr(attr string) (Value, bool) {
	v, ok := m[attr]
	return v, ok
}

func cands(t *testing.T, ix *Index, src Source) []int32 {
	t.Helper()
	out := ix.Candidates(src, nil)
	if !slices.IsSorted(out) {
		t.Fatalf("candidates not sorted: %v", out)
	}
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			t.Fatalf("duplicate candidate seq %d in %v", out[i], out)
		}
	}
	return out
}

func TestBuildAndCandidatesBasics(t *testing.T) {
	ix := Build([]Key{
		EqKey("site", Str("cern")),             // 0
		EqKey("site", Str("ral")),              // 1
		EqKey("site", Str("cern"), Str("ral")), // 2
		RangeKey("load", math.Inf(-1), 5),      // 3: load <= 5
		RangeKey("load", 3, math.Inf(1)),       // 4: load >= 3
		ResidualKey(),                          // 5
		NeverKey(),                             // 6
		EqKey("up", Boolean(true)),             // 7
		RangeKey("load", 10, 20),               // 8
	})
	if ix.Len() != 9 || ix.NumResidual() != 1 || ix.NumNever() != 1 {
		t.Fatalf("Len=%d residual=%d never=%d", ix.Len(), ix.NumResidual(), ix.NumNever())
	}

	got := cands(t, ix, mapSource{"site": Str("cern"), "load": Num(4), "up": Boolean(true)})
	want := []int32{0, 2, 3, 4, 5, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}

	// Absent attributes contribute nothing; residual always present.
	got = cands(t, ix, mapSource{})
	if !slices.Equal(got, []int32{5}) {
		t.Fatalf("empty probe candidates %v, want [5]", got)
	}

	// Range endpoints are inclusive on both sides.
	got = cands(t, ix, mapSource{"load": Num(10)})
	if !slices.Equal(got, []int32{4, 5, 8}) {
		t.Fatalf("load=10 candidates %v, want [4 5 8]", got)
	}
	got = cands(t, ix, mapSource{"load": Num(20)})
	if !slices.Equal(got, []int32{4, 5, 8}) {
		t.Fatalf("load=20 candidates %v, want [4 5 8]", got)
	}

	// Non-numeric probe value never stabs the interval tree.
	got = cands(t, ix, mapSource{"load": Str("4")})
	if !slices.Equal(got, []int32{5}) {
		t.Fatalf("string load candidates %v, want [5]", got)
	}
}

func TestKeyConstructorsDegrade(t *testing.T) {
	if k := EqKey("a"); k.Kind != Never {
		t.Fatalf("empty EqKey kind %v, want Never", k.Kind)
	}
	if k := RangeKey("a", 5, 3); k.Kind != Never {
		t.Fatalf("empty RangeKey kind %v, want Never", k.Kind)
	}
	if k := RangeKey("a", math.NaN(), 3); k.Kind != Never {
		t.Fatalf("NaN RangeKey kind %v, want Never", k.Kind)
	}
	if k := RangeKey("a", 3, 3); k.Kind != Range {
		t.Fatalf("point RangeKey kind %v, want Range", k.Kind)
	}
}

func TestAndCombinator(t *testing.T) {
	eq1 := EqKey("a", Num(1))
	eq2 := EqKey("b", Num(1), Num(2))
	rng := RangeKey("c", 0, 10)
	res := ResidualKey()
	nev := NeverKey()

	if k := And(res, nev); k.Kind != Never {
		t.Fatalf("And(residual, never) = %v", k)
	}
	if k := And(eq1, rng); k.Kind != Eq || k.Attr != "a" {
		t.Fatalf("And(eq, range) = %+v, want eq1", k)
	}
	if k := And(rng, res); k.Kind != Range {
		t.Fatalf("And(range, residual) = %+v, want range", k)
	}
	// Ties between Eq keys: fewer values wins.
	if k := And(eq2, eq1); k.Attr != "a" {
		t.Fatalf("And(eq2, eq1) = %+v, want the 1-value key", k)
	}
	if k := And(eq1, eq2); k.Attr != "a" {
		t.Fatalf("And(eq1, eq2) = %+v, want the 1-value key", k)
	}
}

func TestOrCombinator(t *testing.T) {
	if k := Or(NeverKey(), EqKey("a", Num(1))); k.Kind != Eq {
		t.Fatalf("Or(never, eq) = %+v", k)
	}
	if k := Or(ResidualKey(), EqKey("a", Num(1))); k.Kind != Residual {
		t.Fatalf("Or(residual, eq) = %+v", k)
	}
	// Same-attr Eq union, deduplicated.
	k := Or(EqKey("a", Num(1), Num(2)), EqKey("a", Num(2), Num(3)))
	if k.Kind != Eq || len(k.Vals) != 3 {
		t.Fatalf("Or eq-union = %+v, want 3 deduped values", k)
	}
	// Different attrs cannot be admitted by one key.
	if k := Or(EqKey("a", Num(1)), EqKey("b", Num(1))); k.Kind != Residual {
		t.Fatalf("Or cross-attr = %+v, want Residual", k)
	}
	// Same-attr Range hull.
	k = Or(RangeKey("a", 0, 5), RangeKey("a", 10, 20))
	if k.Kind != Range || k.Lo != 0 || k.Hi != 20 {
		t.Fatalf("Or range-hull = %+v, want [0,20]", k)
	}
	// Eq-vs-Range stays safe.
	if k := Or(EqKey("a", Str("x")), RangeKey("a", 0, 5)); k.Kind != Residual {
		t.Fatalf("Or eq-vs-range = %+v, want Residual", k)
	}
}

// TestIntervalStabRandomized cross-checks the implicit interval tree
// against a brute-force scan over random interval sets and probe
// points, including open (±Inf) sides and shared endpoints.
func TestIntervalStabRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		keys := make([]Key, n)
		type ivt struct{ lo, hi float64 }
		ivs := make([]ivt, n)
		for i := range keys {
			lo := float64(rng.Intn(21) - 10)
			hi := lo + float64(rng.Intn(11))
			if rng.Intn(8) == 0 {
				lo = math.Inf(-1)
			}
			if rng.Intn(8) == 0 {
				hi = math.Inf(1)
			}
			keys[i] = RangeKey("x", lo, hi)
			ivs[i] = ivt{lo, hi}
		}
		ix := Build(keys)
		for probe := 0; probe < 30; probe++ {
			x := float64(rng.Intn(31) - 15)
			got := cands(t, ix, mapSource{"x": Num(x)})
			var want []int32
			for i, v := range ivs {
				if v.lo <= x && x <= v.hi {
					want = append(want, int32(i))
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d x=%v: got %v, want %v", trial, x, got, want)
			}
		}
	}
}

// TestCandidatesScratchReuse pins the zero-allocation contract: a
// recycled buffer large enough for the result must be reused, not
// reallocated — on a built index and on a patched one, whose probe also
// walks the delta and filters removed seqs.
func TestCandidatesScratchReuse(t *testing.T) {
	built := Build([]Key{EqKey("a", Num(1)), ResidualKey(), RangeKey("a", 0, 2)})
	patched := built.Without(1).With(3, EqKey("a", Num(1))).With(4, ResidualKey())
	if patched.delta == nil || len(patched.gone) == 0 {
		t.Fatal("patches merged; the delta path is not under test")
	}
	src := mapSource{"a": Num(1)}
	for _, tc := range []struct {
		name string
		ix   *Index
		want []int32
	}{
		{"built", built, []int32{0, 1, 2}},
		{"patched", patched, []int32{0, 2, 3, 4}},
	} {
		buf := make([]int32, 0, 16)
		out := tc.ix.Candidates(src, buf)
		if !slices.Equal(out, tc.want) {
			t.Fatalf("%s: candidates %v, want %v", tc.name, out, tc.want)
		}
		if &out[:1][0] != &buf[:1][0] {
			t.Fatalf("%s: Candidates reallocated despite sufficient scratch capacity", tc.name)
		}
		if n := testing.AllocsPerRun(100, func() {
			buf = tc.ix.Candidates(src, buf[:0])
		}); n != 0 {
			t.Fatalf("%s: Candidates allocates %v per run with recycled scratch", tc.name, n)
		}
	}
}

// forceMergeAt pins the delta merge threshold for one test.
func forceMergeAt(t *testing.T, n int) {
	prev := mergeAt
	mergeAt = func(int) int { return n }
	t.Cleanup(func() { mergeAt = prev })
}

// randKey draws a key over three attributes: multi-value (and
// duplicate-value) Eq keys across kinds, ranges with open sides,
// Residual and Never.
func randKey(rng *rand.Rand) Key {
	attr := []string{"a", "b", "c"}[rng.Intn(3)]
	val := func() Value {
		switch rng.Intn(6) {
		case 0:
			return Str([]string{"x", "y"}[rng.Intn(2)])
		case 1:
			return Boolean(rng.Intn(2) == 0)
		}
		return Num(float64(rng.Intn(7) - 3))
	}
	switch rng.Intn(8) {
	case 0:
		return ResidualKey()
	case 1:
		return NeverKey()
	case 2, 3:
		lo := float64(rng.Intn(9) - 4)
		hi := lo + float64(rng.Intn(4))
		if rng.Intn(6) == 0 {
			lo = math.Inf(-1)
		}
		if rng.Intn(6) == 0 {
			hi = math.Inf(1)
		}
		return RangeKey(attr, lo, hi)
	}
	vals := []Value{val()}
	for rng.Intn(3) == 0 {
		vals = append(vals, val())
	}
	return EqKey(attr, vals...)
}

// randProbe draws a probe where each attribute is absent, numeric
// (including NaN), string or bool.
func randProbe(rng *rand.Rand) mapSource {
	src := mapSource{}
	for _, attr := range []string{"a", "b", "c"} {
		switch rng.Intn(6) {
		case 0:
		case 1:
			src[attr] = Num(math.NaN())
		case 2:
			src[attr] = Str([]string{"x", "y", "z"}[rng.Intn(3)])
		case 3:
			src[attr] = Boolean(rng.Intn(2) == 0)
		default:
			src[attr] = Num(float64(rng.Intn(11) - 5))
		}
	}
	return src
}

// TestPatchedMatchesBuildRandomized is the property test of the patch
// form: after every step of a random With/Without sequence, Candidates
// on random probes equals Build over the surviving keys (mapped back to
// their seqs), never names a removed seq, and so does the Compact of
// the patched index. It runs with every patch forced through a merge,
// with a tiny delta, and at the production threshold; seqs are mostly
// appended but removed ones are sometimes re-added.
func TestPatchedMatchesBuildRandomized(t *testing.T) {
	for _, limit := range []int{1, 3, 0} {
		name := "production"
		if limit > 0 {
			name = fmt.Sprintf("merge-at-%d", limit)
		}
		t.Run(name, func(t *testing.T) {
			if limit > 0 {
				forceMergeAt(t, limit)
			}
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var ix *Index
				live := map[int32]Key{}
				var removed []int32
				next := int32(0)
				for step := 0; step < 300; step++ {
					switch r := rng.Intn(10); {
					case r < 4 && len(live) > 0:
						seqs := sortedSeqs(live)
						s := seqs[rng.Intn(len(seqs))]
						ix = ix.Without(s)
						delete(live, s)
						removed = append(removed, s)
					case r < 5 && len(removed) > 0:
						i := rng.Intn(len(removed))
						s := removed[i]
						removed = slices.Delete(removed, i, i+1)
						k := randKey(rng)
						ix = ix.With(s, k)
						live[s] = k
					default:
						k := randKey(rng)
						ix = ix.With(next, k)
						live[next] = k
						next++
					}
					checkAgainstBuild(t, fmt.Sprintf("seed %d step %d", seed, step), ix, live, rng)
				}
			}
		})
	}
}

func sortedSeqs(live map[int32]Key) []int32 {
	seqs := make([]int32, 0, len(live))
	for s := range live {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	return seqs
}

// checkAgainstBuild compares ix with Build over the live keys on random
// probes, then does the same for ix.Compact.
func checkAgainstBuild(t *testing.T, label string, ix *Index, live map[int32]Key, rng *rand.Rand) {
	t.Helper()
	seqs := sortedSeqs(live)
	keys := make([]Key, len(seqs))
	for i, s := range seqs {
		keys[i] = live[s]
	}
	ref := Build(keys)
	if ix.Len() != len(live) || ix.NumResidual() != ref.NumResidual() || ix.NumNever() != ref.NumNever() {
		t.Fatalf("%s: Len/residual/never %d/%d/%d, want %d/%d/%d", label,
			ix.Len(), ix.NumResidual(), ix.NumNever(), len(live), ref.NumResidual(), ref.NumNever())
	}
	if ix != nil {
		pending := len(ix.gone)
		if ix.delta != nil {
			pending += len(ix.delta.entries)
		}
		if pending >= mergeAt(ix.live) {
			t.Fatalf("%s: delta of %d not merged (threshold %d)", label, pending, mergeAt(ix.live))
		}
	}
	compact := ix.Compact()
	for p := 0; p < 8; p++ {
		src := randProbe(rng)
		var want []int32
		for _, i := range cands(t, ref, src) {
			want = append(want, seqs[i])
		}
		if got := cands(t, ix, src); !slices.Equal(got, want) {
			t.Fatalf("%s probe %v: patched candidates %v, Build over survivors %v", label, src, got, want)
		}
		if got, want := cands(t, compact, src), cands(t, ref, src); !slices.Equal(got, want) {
			t.Fatalf("%s probe %v: compacted candidates %v, Build over survivors %v", label, src, got, want)
		}
	}
}

// TestPatchMisuse pins the seq contract: With of a live seq and Without
// of an absent one are caller bugs.
func TestPatchMisuse(t *testing.T) {
	ix := Build([]Key{EqKey("a", Num(1))}).With(1, ResidualKey())
	for name, fn := range map[string]func(){
		"With of a live base seq":    func() { ix.With(0, ResidualKey()) },
		"With of a live delta seq":   func() { ix.With(1, ResidualKey()) },
		"Without of an absent seq":   func() { ix.Without(2) },
		"Without of a removed seq":   func() { ix.Without(0).Without(0) },
		"Without on the empty index": func() { (*Index)(nil).Without(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMultiValueEqSingleProbe pins the per-plan dedup invariant: a
// multi-value Eq key emits its seq at most once per probe even when
// values collide after canonicalization.
func TestMultiValueEqSingleProbe(t *testing.T) {
	ix := Build([]Key{EqKey("a", Num(1), Num(1), Str("x"))})
	got := cands(t, ix, mapSource{"a": Num(1)})
	if !slices.Equal(got, []int32{0}) {
		t.Fatalf("candidates %v, want [0]", got)
	}
}
