package sqlmini

import (
	"math/rand"
	"slices"
	"testing"

	"gridmon/internal/predindex"
)

// TestRequiredKeySupersetRandomized is the randomized superset-property
// suite over WHERE extraction: 4000 generated predicates (the same
// generator the compile conformance suite fuzzes with — comparisons
// against ints, floats, strings, NULL and ghost columns under
// AND/OR/NOT nesting), batched into indexes and probed with random rows
// (NULLs, ill-typed cells, short rows). Every predicate whose compiled
// program matches a row MUST appear among the index candidates for that
// row: the index may over-include, never under-include.
func TestRequiredKeySupersetRandomized(t *testing.T) {
	tab := confTable()
	rng := rand.New(rand.NewSource(20260807))
	const batches, perBatch = 100, 40
	skipped := 0
	for b := 0; b < batches; b++ {
		wheres := make([]string, perBatch)
		progs := make([]*Program, perBatch)
		keys := make([]predindex.Key, perBatch)
		for i := 0; i < perBatch; i++ {
			wheres[i] = randPredicate(rng, 3)
			sel := mustSelect(t, wheres[i])
			progs[i] = sel.Compiled(tab)
			keys[i] = sel.Where.RequiredKey()
		}
		ix := predindex.Build(keys)
		skipped += ix.NumNever()
		probe := &RowSource{Table: tab}
		var buf []int32
		for trial := 0; trial < 25; trial++ {
			probe.Row = randRow(rng, len(tab.Columns))
			buf = ix.Candidates(probe, buf[:0])
			for seq, prog := range progs {
				if prog.Matches(probe.Row) && !slices.Contains(buf, int32(seq)) {
					t.Fatalf("batch %d: WHERE %s matches row %v but is not a candidate (key %+v, candidates %v)",
						b, wheres[seq], probe.Row, keys[seq], buf)
				}
			}
		}
	}
	if skipped == 0 {
		t.Fatal("generator produced no Never keys — NULL-literal coverage lost")
	}
}

// TestRequiredKeyShapes pins the extraction rules the index relies on.
func TestRequiredKeyShapes(t *testing.T) {
	cases := []struct {
		where string
		kind  predindex.KeyKind
	}{
		{"a = 5", predindex.Eq},
		{"s = 'x'", predindex.Eq},
		{"x = 1.5", predindex.Eq},
		{"a < 5", predindex.Range},
		{"a >= 5", predindex.Range},
		{"a <> 5", predindex.Residual},
		{"a = NULL", predindex.Never},
		{"a < NULL", predindex.Never},
		{"s < 'x'", predindex.Residual}, // SQL string ordering is real here
		{"a = 1 AND b = 2", predindex.Eq},
		{"a = 1 OR a = 2", predindex.Eq},
		{"a = 1 OR b = 2", predindex.Residual},
		{"a < 5 OR a > 10", predindex.Range},
		{"a = 1 AND s IS NULL", predindex.Eq},
		{"s IS NULL", predindex.Residual},
		{"NOT a = 5", predindex.Residual},
		{"a = 1 OR a = NULL", predindex.Eq}, // Never side drops out
	}
	for _, c := range cases {
		sel := mustSelect(t, c.where)
		if k := sel.Where.RequiredKey(); k.Kind != c.kind {
			t.Errorf("RequiredKey(%q).Kind = %v, want %v", c.where, k.Kind, c.kind)
		}
	}
}

// TestProbeValueColumns pins probe behaviour: case-insensitive column
// resolution, NULL and missing cells reported as absent.
func TestProbeValueColumns(t *testing.T) {
	tab := confTable()
	probe := &RowSource{Table: tab, Row: Row{IntV(7), Null(), FloatV(1.5)}}
	if v, ok := probe.ProbeAttr("A"); !ok || v != predindex.Num(7) {
		t.Fatalf("ProbeValue(A) = %v, %v", v, ok)
	}
	if _, ok := probe.ProbeAttr("b"); ok {
		t.Fatal("NULL cell must probe as absent")
	}
	if _, ok := probe.ProbeAttr("s"); ok {
		t.Fatal("cell beyond short row must probe as absent")
	}
	if _, ok := probe.ProbeAttr("ghost"); ok {
		t.Fatal("unknown column must probe as absent")
	}
	if v, ok := probe.ProbeAttr("x"); !ok || v != predindex.Num(1.5) {
		t.Fatalf("ProbeValue(x) = %v, %v", v, ok)
	}
}
