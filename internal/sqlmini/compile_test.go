package sqlmini

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridmon/internal/predindex"
	"gridmon/internal/selector"
)

// The conformance suite: every predicate is evaluated by both the
// predicate engine's tree-walking reference (EvalInterpreted over a
// RowSource, resolving names per evaluation) and the compiled Program
// (names resolved to row indexes at compile time) against the same
// rows, and the three-valued verdicts must be identical — the same
// contract internal/selector enforces for JMS messages.

// interpreted is the reference verdict of a SELECT's WHERE on a row.
func interpreted(tab *Table, sel Select, row Row) int {
	return sqlTri(sel.Where.EvalInterpreted(&RowSource{Table: tab, Row: row}))
}

// matches reports whether the reference evaluator accepts the row.
func matches(tab *Table, sel Select, row Row) bool { return interpreted(tab, sel, row) == 1 }

// constVerdict reports a compiled program's row-independent verdict.
func constVerdict(p *Program) (int, bool) {
	t, ok := (*selector.Program)(p).ConstVerdict()
	return sqlTri(t), ok
}

func confTable() *Table {
	return &Table{Name: "t", Columns: []Column{
		{Name: "a", Type: TInteger},
		{Name: "b", Type: TInteger},
		{Name: "x", Type: TDouble},
		{Name: "y", Type: TDouble},
		{Name: "s", Type: TVarchar, Len: 50},
		{Name: "u", Type: TVarchar, Len: 50},
	}}
}

func mustSelect(t *testing.T, where string) Select {
	t.Helper()
	st, err := Parse("SELECT * FROM t WHERE " + where)
	if err != nil {
		t.Fatalf("Parse(%q): %v", where, err)
	}
	return st.(Select)
}

// assertConformance checks interpreted == compiled for one predicate
// over a set of rows.
func assertConformance(t *testing.T, tab *Table, where string, rows []Row) {
	t.Helper()
	sel := mustSelect(t, where)
	prog := sel.Compiled(tab)
	for ri, row := range rows {
		want := interpreted(tab, sel, row)
		got := prog.Eval(row)
		if got != want {
			t.Errorf("WHERE %s row %d (%v): compiled %d, interpreted %d", where, ri, row, got, want)
		}
		if prog.Matches(row) != (want == 1) {
			t.Errorf("WHERE %s row %d: Matches disagrees with verdict %d", where, ri, want)
		}
		if matches(tab, sel, row) != prog.Matches(row) {
			t.Errorf("WHERE %s row %d: reference match disagrees with compiled", where, ri)
		}
	}
}

// confRows is a fixed row set covering the value-kind matrix: typed
// values, NULLs, ill-typed cells (string in a numeric column and vice
// versa — the type-mismatch-is-UNKNOWN rule), and a short row.
func confRows() []Row {
	return []Row{
		{IntV(7), IntV(3), FloatV(1.5), FloatV(-2), StringV("aberdeen"), StringV("z")},
		{IntV(-7), Null(), FloatV(0), Null(), StringV(""), Null()},
		{Null(), Null(), Null(), Null(), Null(), Null()},
		{StringV("oops"), IntV(1), StringV("bad"), FloatV(9), IntV(5), FloatV(1)}, // ill-typed
		{IntV(100), IntV(100), FloatV(100), FloatV(100), StringV("100"), StringV("100")},
		{IntV(7), IntV(3)}, // short row: x, y, s, u read as missing
		{FloatV(math.NaN()), IntV(3), FloatV(math.NaN()), FloatV(2), StringV("n"), Null()}, // IEEE unordered
		{IntV(1<<53 + 1), IntV(1 << 53), FloatV(1 << 53), Null(), Null(), Null()},          // integers compare exactly past 2^53
		{},
	}
}

func TestCompiledConformanceFixed(t *testing.T) {
	tab := confTable()
	rows := confRows()
	for _, where := range []string{
		"a = 7",
		"a <> 7",
		"a < 10",
		"a <= 7",
		"a > 7",
		"a >= 100",
		"x > 1.0",
		"x > 1",
		"s = 'aberdeen'",
		"s < 'b'",
		"s >= ''",
		"a = NULL",
		"s = NULL",
		"a IS NULL",
		"a IS NOT NULL",
		"u IS NULL",
		"nosuchcol = 5",
		"nosuchcol IS NULL",
		"nosuchcol IS NOT NULL",
		"NOT a = 7",
		"NOT NOT a = 7",
		"NOT b = 1",
		"a = 7 AND x > 1",
		"a = 7 AND b = 1",
		"b = 1 AND a = 7",
		"a = 9 OR s = 'aberdeen'",
		"b = 3 OR b = 4",
		"a = 7 AND nosuchcol = 5",
		"nosuchcol = 5 AND a = 7",
		"a = 7 OR nosuchcol = 5",
		"nosuchcol = 5 OR a = 7",
		"nosuchcol = 5 AND nosuchcol2 = 6",
		"nosuchcol = 5 OR nosuchcol2 = 6",
		"NOT nosuchcol = 5",
		"(a = 7 OR b = 8) AND x > 1",
		"(a = 7 AND b = 3) OR (s = 'aberdeen' AND u = 'z')",
		"NOT (a = 7 AND (b = 3 OR x < 0))",
		"a IS NULL OR b IS NULL OR x IS NULL",
		"a IS NOT NULL AND s IS NOT NULL",
		"s = 5",     // string column vs numeric literal
		"a = 'lit'", // numeric column vs string literal (via parser: a = 'lit' — allowed)
	} {
		assertConformance(t, tab, where, rows)
	}
}

// TestCompiledNullThreeValued pins the SQL 3VL corner cases the paper's
// content filtering depends on: NULL propagation through AND/OR/NOT and
// IS NULL, identically in both evaluation paths.
func TestCompiledNullThreeValued(t *testing.T) {
	tab := confTable()
	rows := []Row{
		// b is NULL throughout; a carries a known value.
		{IntV(1), Null(), FloatV(1), FloatV(1), StringV("s"), StringV("s")},
		{IntV(0), Null(), Null(), Null(), Null(), Null()},
	}
	type tc struct {
		where string
		want  int // verdict on rows[0]
	}
	for _, c := range []tc{
		{"b = 1", -1},  // NULL comparison is UNKNOWN
		{"b <> 1", -1}, // ... under every operator
		{"b < 1", -1},
		{"NOT b = 1", -1},            // NOT UNKNOWN = UNKNOWN
		{"b = 1 AND a = 1", -1},      // UNKNOWN AND TRUE = UNKNOWN
		{"b = 1 AND a = 2", 0},       // UNKNOWN AND FALSE = FALSE
		{"a = 2 AND b = 1", 0},       // FALSE short-circuits AND
		{"b = 1 OR a = 1", 1},        // UNKNOWN OR TRUE = TRUE
		{"a = 1 OR b = 1", 1},        // TRUE short-circuits OR
		{"b = 1 OR a = 2", -1},       // UNKNOWN OR FALSE = UNKNOWN
		{"b = 1 OR b = 2", -1},       // UNKNOWN OR UNKNOWN = UNKNOWN
		{"b = 1 AND b = 2", -1},      // UNKNOWN AND UNKNOWN = UNKNOWN
		{"NOT (b = 1 OR a = 1)", 0},  // NOT TRUE
		{"NOT (b = 1 AND a = 2)", 1}, // NOT FALSE
		{"NOT (b = 1 OR a = 2)", -1}, // NOT UNKNOWN
		{"b IS NULL", 1},             // IS NULL sees NULL as a value
		{"b IS NOT NULL", 0},
		{"b IS NULL AND b = 1", -1}, // TRUE AND UNKNOWN
		{"a = NULL", -1},            // NULL literal folds to UNKNOWN
		{"a = NULL OR a = 1", 1},
		{"a = NULL AND a = 1", -1},
		{"NOT a = NULL", -1},
	} {
		sel := mustSelect(t, c.where)
		prog := sel.Compiled(tab)
		for ri, row := range rows {
			want := interpreted(tab, sel, row)
			got := prog.Eval(row)
			if got != want {
				t.Errorf("WHERE %s row %d: compiled %d, interpreted %d", c.where, ri, got, want)
			}
			if ri == 0 && want != c.want {
				t.Errorf("WHERE %s: interpreted verdict %d, expected %d — case is mislabelled", c.where, want, c.want)
			}
		}
	}
}

// randPredicate generates a random WHERE source string: comparison and
// IS NULL leaves (sometimes against columns the schema lacks, sometimes
// against NULL literals) combined with AND/OR/NOT and parentheses.
func randPredicate(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		cols := []string{"a", "b", "x", "y", "s", "u", "ghost"}
		col := cols[rng.Intn(len(cols))]
		if rng.Intn(5) == 0 {
			if rng.Intn(2) == 0 {
				return col + " IS NULL"
			}
			return col + " IS NOT NULL"
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		op := ops[rng.Intn(len(ops))]
		var lit string
		switch rng.Intn(4) {
		case 0:
			lit = fmt.Sprintf("%d", rng.Intn(21)-10)
		case 1:
			lit = fmt.Sprintf("%.2f", rng.Float64()*20-10)
		case 2:
			lit = fmt.Sprintf("'%c'", 'a'+rune(rng.Intn(4)))
		default:
			lit = "NULL"
		}
		return col + " " + op + " " + lit
	}
	switch rng.Intn(4) {
	case 0:
		return "NOT " + randPredicate(rng, depth-1)
	case 1:
		return "(" + randPredicate(rng, depth-1) + ")"
	case 2:
		return randPredicate(rng, depth-1) + " AND " + randPredicate(rng, depth-1)
	default:
		return randPredicate(rng, depth-1) + " OR " + randPredicate(rng, depth-1)
	}
}

// randRow generates a random row: NULLs, ints, floats and strings in
// every column regardless of declared type (predicate evaluation must
// handle ill-typed cells), occasionally truncated short of the schema.
func randRow(rng *rand.Rand, width int) Row {
	if rng.Intn(12) == 0 {
		width = rng.Intn(width + 1)
	}
	row := make(Row, width)
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = Null()
		case 1:
			row[i] = IntV(int64(rng.Intn(21) - 10))
		case 2:
			row[i] = FloatV(rng.Float64()*20 - 10)
		case 3:
			row[i] = FloatV(math.NaN()) // IEEE unordered: matches only <>
		default:
			row[i] = StringV(string('a' + rune(rng.Intn(4))))
		}
	}
	return row
}

func TestCompiledConformanceRandomized(t *testing.T) {
	tab := confTable()
	rng := rand.New(rand.NewSource(20260727))
	for i := 0; i < 4000; i++ {
		where := randPredicate(rng, 3)
		sel := mustSelect(t, where)
		prog := sel.Compiled(tab)
		for j := 0; j < 8; j++ {
			row := randRow(rng, len(tab.Columns))
			want := interpreted(tab, sel, row)
			got := prog.Eval(row)
			if got != want {
				t.Fatalf("seed case %d: WHERE %s over %v: compiled %d, interpreted %d", i, where, row, got, want)
			}
		}
	}
}

func TestCompiledNilAndConstVerdict(t *testing.T) {
	tab := confTable()
	var nilProg *Program
	if !nilProg.Matches(Row{IntV(1)}) || nilProg.Eval(nil) != 1 {
		t.Fatal("nil program must match everything")
	}
	star, err := Parse("SELECT * FROM t")
	if err != nil {
		t.Fatal(err)
	}
	p := star.(Select).Compiled(tab)
	if v, ok := constVerdict(p); !ok || v != 1 {
		t.Fatalf("no-predicate ConstVerdict = %d, %v", v, ok)
	}
	folded := mustSelect(t, "ghost = 5").Compiled(tab)
	if v, ok := constVerdict(folded); !ok || v != -1 {
		t.Fatalf("folded ConstVerdict = %d, %v", v, ok)
	}
	varying := mustSelect(t, "a = 5").Compiled(tab)
	if _, ok := constVerdict(varying); ok {
		t.Fatal("varying predicate reported const")
	}
}

// TestCompiledFoldsShortCircuitShapes pins that folding produces the
// compact programs the compiler promises (a single constant push), so a
// regression back to full emission is visible.
func TestCompiledFoldsConstantSubtrees(t *testing.T) {
	tab := confTable()
	for _, where := range []string{
		"ghost = 5",
		"a = NULL",
		"ghost IS NULL",
		"ghost = 5 AND a = NULL",
		"ghost IS NULL OR s = NULL",
		"NOT ghost = 5",
	} {
		p := mustSelect(t, where).Compiled(tab)
		if _, ok := constVerdict(p); !ok {
			t.Errorf("WHERE %s did not compile to one constant", where)
		}
	}
	// AND with a folded FALSE side folds even when the other side varies.
	p := mustSelect(t, "a = 1 AND ghost IS NOT NULL").Compiled(tab)
	if v, ok := constVerdict(p); !ok || v != 0 {
		t.Errorf("AND-with-folded-FALSE = (%d, %v), want constant FALSE", v, ok)
	}
	// OR with a folded TRUE side folds likewise.
	p = mustSelect(t, "a = 1 OR ghost IS NULL").Compiled(tab)
	if v, ok := constVerdict(p); !ok || v != 1 {
		t.Errorf("OR-with-folded-TRUE = (%d, %v), want constant TRUE", v, ok)
	}
}

func BenchmarkWhereCompiled(b *testing.B) {
	tab := &Table{Name: "t", Columns: []Column{{Name: "x", Type: TInteger}, {Name: "s", Type: TVarchar, Len: 50}}}
	st, _ := Parse("SELECT * FROM t WHERE x < 100 AND s = 'aberdeen'")
	p := st.(Select).Compiled(tab)
	r := Row{IntV(7), StringV("aberdeen")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches(r) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkWhereCompiledSimple(b *testing.B) {
	tab := &Table{Name: "t", Columns: []Column{{Name: "genid", Type: TInteger}}}
	st, _ := Parse("SELECT * FROM t WHERE genid < 10000")
	p := st.(Select).Compiled(tab)
	r := Row{IntV(7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !p.Matches(r) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkWhereInterpretedSimple(b *testing.B) {
	tab := &Table{Name: "t", Columns: []Column{{Name: "genid", Type: TInteger}}}
	st, _ := Parse("SELECT * FROM t WHERE genid < 10000")
	s := st.(Select)
	r := Row{IntV(7)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !matches(tab, s, r) {
			b.Fatal("no match")
		}
	}
}

// TestCompiledNaNUnordered pins IEEE NaN comparison semantics on both
// evaluators: '=' and every ordering against (or from) NaN are FALSE,
// '<>' is TRUE — never UNKNOWN, the operands are present and numeric.
// This is the semantic the matching index assumes: a NaN cell hits no
// Eq bucket and no interval, and '<>' extracts Residual.
func TestCompiledNaNUnordered(t *testing.T) {
	tab := confTable()
	nanRow := Row{FloatV(math.NaN()), IntV(1), FloatV(math.NaN()), FloatV(2), StringV("s"), Null()}
	cases := []struct {
		where string
		want  int
	}{
		{"a = 5", 0},
		{"a <> 5", 1},
		{"a < 5", 0},
		{"a <= 5", 0},
		{"a > 5", 0},
		{"a >= 5", 0},
		{"x = 1.5", 0},
		{"x <> 1.5", 1},
		{"NOT a = 5", 1},
		{"a < 5 OR a >= 5", 0}, // NaN escapes the apparent tautology
	}
	for _, c := range cases {
		sel := mustSelect(t, c.where)
		if got := interpreted(tab, sel, nanRow); got != c.want {
			t.Errorf("interpreted WHERE %s on NaN row = %d, want %d", c.where, got, c.want)
		}
		if got := sel.Compiled(tab).Eval(nanRow); got != c.want {
			t.Errorf("compiled WHERE %s on NaN row = %d, want %d", c.where, got, c.want)
		}
	}
}

// TestCompiledIntegersCompareExactly pins that two integers compare
// exactly: float64 promotion would call 2^53+1 equal to 2^53. The
// matching index keys numbers by float64, a superset of the exact
// matches.
func TestCompiledIntegersCompareExactly(t *testing.T) {
	tab := confTable()
	row := Row{IntV(1<<53 + 1)}
	for where, want := range map[string]int{
		"a = 9007199254740992":  0,
		"a > 9007199254740992":  1,
		"a <> 9007199254740992": 1,
		"a = 9007199254740993":  1,
	} {
		sel := mustSelect(t, where)
		if got := sel.Compiled(tab).Eval(row); got != want {
			t.Errorf("compiled WHERE %s = %d, want %d", where, got, want)
		}
		if got := interpreted(tab, sel, row); got != want {
			t.Errorf("interpreted WHERE %s = %d, want %d", where, got, want)
		}
		ix := predindex.Build([]predindex.Key{sel.Where.RequiredKey()})
		if want == 1 && len(ix.Candidates(&RowSource{Table: tab, Row: row}, nil)) != 1 {
			t.Errorf("WHERE %s matches but is not an index candidate", where)
		}
	}
}

// TestCompiledEvalAllocatesNothing pins that a compiled program reads a
// row through the indexes bound at compile time, allocating nothing.
func TestCompiledEvalAllocatesNothing(t *testing.T) {
	tab := confTable()
	row := confRows()[0]
	for _, where := range []string{"a < 10", "s = 'aberdeen' AND (x > 1 OR NOT b IS NULL)"} {
		p := mustSelect(t, where).Compiled(tab)
		if allocs := testing.AllocsPerRun(100, func() { p.Eval(row) }); allocs != 0 {
			t.Errorf("WHERE %s: %v allocations per Eval", where, allocs)
		}
	}
}
