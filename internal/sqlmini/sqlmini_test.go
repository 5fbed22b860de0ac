package sqlmini

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gridmon/internal/selector"
)

// paperTable is the R-GMA monitoring table from the paper's workload:
// four integer, eight double and four char(20) values.
func paperTable(t *testing.T) *Table {
	t.Helper()
	src := `CREATE TABLE generator (
		genid INTEGER PRIMARY KEY, seq INTEGER, status_code INTEGER, alarms INTEGER,
		power DOUBLE PRECISION, voltage DOUBLE PRECISION, current DOUBLE PRECISION,
		frequency DOUBLE PRECISION, phase DOUBLE PRECISION, temp DOUBLE PRECISION,
		pressure DOUBLE PRECISION, efficiency DOUBLE PRECISION,
		site CHAR(20), model CHAR(20), status CHAR(20), operator CHAR(20))`
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse create: %v", err)
	}
	ct := st.(CreateTable)
	return &ct.Table
}

func TestCreateTablePaperSchema(t *testing.T) {
	tab := paperTable(t)
	if tab.Name != "generator" || len(tab.Columns) != 16 {
		t.Fatalf("table = %+v", tab)
	}
	counts := map[ColType]int{}
	for _, c := range tab.Columns {
		counts[c.Type]++
	}
	if counts[TInteger] != 4 || counts[TDouble] != 8 || counts[TChar] != 4 {
		t.Fatalf("paper column mix wrong: %v", counts)
	}
	if got := tab.PrimaryKey(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("primary key = %v", got)
	}
	if tab.Columns[12].Len != 20 {
		t.Fatalf("char len = %d", tab.Columns[12].Len)
	}
	if tab.ColIndex("POWER") != 4 {
		t.Fatal("case-insensitive column lookup failed")
	}
	if tab.ColIndex("nope") != -1 {
		t.Fatal("missing column index")
	}
}

func TestParseInsert(t *testing.T) {
	st, err := Parse("INSERT INTO generator (genid, power, site) VALUES (7, 1.5, 'aberdeen')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(Insert)
	if ins.Table != "generator" || len(ins.Columns) != 3 || len(ins.Values) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	if !ins.Values[0].Equal(IntV(7)) || !ins.Values[1].Equal(FloatV(1.5)) || !ins.Values[2].Equal(StringV("aberdeen")) {
		t.Fatalf("values = %v", ins.Values)
	}
}

func TestParseInsertNegativeAndNull(t *testing.T) {
	st, err := Parse("INSERT INTO t VALUES (-5, NULL, -2.5, 'x')")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(Insert)
	if !ins.Values[0].Equal(IntV(-5)) || !ins.Values[1].IsNull() || !ins.Values[2].Equal(FloatV(-2.5)) {
		t.Fatalf("values = %v", ins.Values)
	}
}

func TestParseSelect(t *testing.T) {
	st, err := Parse("SELECT genid, power FROM generator WHERE power > 1.0 AND site = 'aberdeen'")
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(Select)
	if sel.Table != "generator" || len(sel.Columns) != 2 || sel.Where == nil {
		t.Fatalf("select = %+v", sel)
	}
	st2, err := Parse("SELECT * FROM generator")
	if err != nil {
		t.Fatal(err)
	}
	if sel2 := st2.(Select); sel2.Columns != nil || sel2.Where != nil {
		t.Fatalf("select * = %+v", sel2)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"DROP TABLE x",
		"CREATE TABLE",
		"CREATE TABLE t (x BLOB)",
		"CREATE TABLE t (x INTEGER, x REAL)",
		"CREATE TABLE t (x DOUBLE)",
		"CREATE TABLE t (s CHAR)",
		"INSERT INTO t VALUES",
		"INSERT INTO t (a, b) VALUES (1)",
		"INSERT INTO t VALUES (1,)",
		"INSERT INTO t VALUES (-'x')",
		"SELECT FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a",
		"SELECT a FROM t WHERE a ==",
		"SELECT a FROM t WHERE (a = 1",
		"SELECT a FROM t WHERE a = 1 garbage",
		"SELECT a FROM t WHERE 'lit' = a",
		"INSERT INTO t VALUES ('unterminated)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("Parse(%q) error not ErrSyntax: %v", src, err)
		}
	}
}

// TestParseErrorOffsets pins where a parse error points, in the
// statement head and in the WHERE clause: each error is a
// *selector.Error over the whole statement, at the token that fails (a
// WHERE that is not R-GMA's shape, at the end of the WHERE keyword).
func TestParseErrorOffsets(t *testing.T) {
	for _, c := range []struct {
		src string
		pos int
	}{
		{"", 0},
		{"DROP TABLE x", 0},
		{"CREATE TABLE", 12},
		{"CREATE TABLE t (x BLOB)", 18},
		{"CREATE TABLE t (x DOUBLE)", 24},
		{"CREATE TABLE t (s CHAR)", 22},
		{"CREATE TABLE t (s CHAR(1.5))", 23},
		{"CREATE TABLE t (a INTEGER PRIMARY)", 33},
		{"CREATE TABLE t (a INTEGER", 25},
		{"INSERT INTO t VALUES", 20},
		{"INSERT t VALUES (1)", 7},
		{"INSERT INTO t VALUES (1,)", 24},
		{"INSERT INTO t VALUES (-'x')", 23},
		{"INSERT INTO t VALUES (-NULL)", 23},
		{"INSERT INTO t VALUES (TRUE)", 22},
		{"INSERT INTO t VALUES ('unterminated)", 22},
		{"INSERT INTO t VALUES (99999999999999999999)", 22},
		{"INSERT INTO t VALUES (1e5x)", 25},
		{"INSERT INTO t VALUES (1) extra", 25},
		{"INSERT INTO t (a, b VALUES (1, 2)", 20},
		{"SELECT FROM t", 12},
		{"SELECT * FROM t;", 15},
		{"SELECT * FROM t x", 16},
		{"SELECT * t", 9},
		{"SELECT a FROM t WHERE", 21},
		{"SELECT * FROM t WHERE   ", 24},
		{"SELECT a FROM t WHERE a", 21},
		{"SELECT a FROM t WHERE a ==", 25},
		{"SELECT a FROM t WHERE (a = 1", 28},
		{"SELECT a FROM t WHERE a = 1 garbage", 28},
		{"SELECT a FROM t WHERE 'lit' = a", 21},
		{"SELECT * FROM t WHERE a = 1e", 27},
		{"SELECT * FROM t WHERE a$ = 1", 23},
		{"SELECT * FROM t WHERE -a = 1", 23},
		{"SELECT * FROM t WHERE a = 'x", 26},
		{"SELECT * FROM t  WHERE  a = b", 22},
		{"select * from t where a in ('x')", 21},
		// Errors in the column and value lists.
		{"INSERT INTO t (a, b) VALUES (1)", 30},
		{"CREATE TABLE t (x INTEGER, x REAL)", 27},
		{"CREATE TABLE t (a INTEGER, not INTEGER)", 27},
	} {
		_, err := Parse(c.src)
		var se *selector.Error
		if !errors.Is(err, ErrSyntax) || !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a *selector.Error under ErrSyntax", c.src, err)
		} else if se.Pos != c.pos || se.Expr != c.src {
			t.Errorf("Parse(%q) error at offset %d in %q, want offset %d", c.src, se.Pos, se.Expr, c.pos)
		}
	}
}

// TestParseInsertAllocs pins the allocations of parsing the paper's
// INSERT (16 columns named, 16 values): the column list grows five
// times, the value list is sized once from it, each of the four strings
// is one copy, and the statement is one. Other tokens slice the
// statement.
func TestParseInsertAllocs(t *testing.T) {
	tab := paperTable(t)
	r := make(Row, len(tab.Columns))
	for i, c := range tab.Columns {
		switch c.Type {
		case TInteger:
			r[i] = IntV(int64(i))
		case TDouble:
			r[i] = FloatV(float64(i) + 0.5)
		default:
			r[i] = StringV("aberdeen")
		}
	}
	src := FormatInsert(tab, r)
	if got := testing.AllocsPerRun(100, func() { _, _ = Parse(src) }); got != 11 {
		t.Fatalf("Parse(%q): %v allocs, want 11", src, got)
	}
}

func row(t *testing.T, tab *Table, genid int64, power float64, site string) Row {
	t.Helper()
	r := make(Row, len(tab.Columns))
	r[tab.ColIndex("genid")] = IntV(genid)
	r[tab.ColIndex("power")] = FloatV(power)
	r[tab.ColIndex("site")] = StringV(site)
	return r
}

func sel(t *testing.T, src string) Select {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st.(Select)
}

func TestWhereEvaluation(t *testing.T) {
	tab := paperTable(t)
	r := row(t, tab, 7, 1.5, "aberdeen")
	cases := []struct {
		where string
		want  bool
	}{
		{"genid = 7", true},
		{"genid <> 7", false},
		{"genid < 10", true},
		{"genid >= 8", false},
		{"power > 1.0", true},
		{"power > 1", true}, // int literal vs double column
		{"site = 'aberdeen'", true},
		{"site < 'b'", true}, // SQL string ordering
		{"site = 'cardiff'", false},
		{"genid = 7 AND power > 1", true},
		{"genid = 7 AND power > 2", false},
		{"genid = 9 OR site = 'aberdeen'", true},
		{"NOT genid = 9", true},
		{"seq IS NULL", true},
		{"seq IS NOT NULL", false},
		{"genid IS NOT NULL", true},
		{"(genid = 7 OR genid = 8) AND power > 1", true},
	}
	for _, c := range cases {
		s := sel(t, "SELECT * FROM generator WHERE "+c.where)
		if got := matches(tab, s, r); got != c.want {
			t.Errorf("WHERE %s = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestWhereNullThreeValued(t *testing.T) {
	tab := paperTable(t)
	r := row(t, tab, 7, 1.5, "aberdeen") // seq is NULL
	// NULL comparisons are unknown -> no match; NOT unknown stays unknown.
	for _, where := range []string{"seq = 1", "seq <> 1", "NOT seq = 1", "seq < 5 AND genid = 7"} {
		s := sel(t, "SELECT * FROM generator WHERE "+where)
		if matches(tab, s, r) {
			t.Errorf("WHERE %s matched a NULL row", where)
		}
	}
	// Unknown OR true = true.
	s := sel(t, "SELECT * FROM generator WHERE seq = 1 OR genid = 7")
	if !matches(tab, s, r) {
		t.Error("unknown OR true should match")
	}
}

func TestTypeMismatchUnknown(t *testing.T) {
	tab := paperTable(t)
	r := row(t, tab, 7, 1.5, "aberdeen")
	s := sel(t, "SELECT * FROM generator WHERE site = 5")
	if matches(tab, s, r) {
		t.Error("string/number mismatch matched")
	}
	s2 := sel(t, "SELECT * FROM generator WHERE nosuchcol = 5")
	if matches(tab, s2, r) {
		t.Error("missing column matched")
	}
}

func TestCheckRow(t *testing.T) {
	tab := paperTable(t)
	good := row(t, tab, 1, 2.5, "x")
	if err := CheckRow(tab, good); err != nil {
		t.Fatalf("good row rejected: %v", err)
	}
	short := Row{IntV(1)}
	if err := CheckRow(tab, short); err == nil {
		t.Fatal("short row accepted")
	}
	bad := row(t, tab, 1, 2.5, "x")
	bad[tab.ColIndex("genid")] = StringV("oops")
	if err := CheckRow(tab, bad); err == nil {
		t.Fatal("type mismatch accepted")
	}
	long := row(t, tab, 1, 2.5, strings.Repeat("z", 21))
	if err := CheckRow(tab, long); err == nil {
		t.Fatal("over-length CHAR accepted")
	}
	intoDouble := row(t, tab, 1, 2.5, "x")
	intoDouble[tab.ColIndex("power")] = IntV(3)
	if err := CheckRow(tab, intoDouble); err != nil {
		t.Fatalf("int into double rejected: %v", err)
	}
}

func TestReorderInsert(t *testing.T) {
	tab := paperTable(t)
	st, _ := Parse("INSERT INTO generator (power, genid, site) VALUES (1.5, 7, 'aberdeen')")
	r, err := ReorderInsert(tab, st.(Insert))
	if err != nil {
		t.Fatal(err)
	}
	if !r[0].Equal(IntV(7)) || !r[4].Equal(FloatV(1.5)) {
		t.Fatalf("reordered = %v", r)
	}
	if !r[1].IsNull() {
		t.Fatal("unnamed column not NULL")
	}
	// Unknown column.
	st2, _ := Parse("INSERT INTO generator (bogus) VALUES (1)")
	if _, err := ReorderInsert(tab, st2.(Insert)); err == nil {
		t.Fatal("unknown column accepted")
	}
	// Full positional insert requires all columns.
	st3, _ := Parse("INSERT INTO generator VALUES (1, 2)")
	if _, err := ReorderInsert(tab, st3.(Insert)); err == nil {
		t.Fatal("short positional insert accepted")
	}
}

// An INSERT that names no columns, or every column in schema order, maps
// onto the table as it stands: ReorderInsert returns its values without
// a copy. Any other column list still lands in schema order.
func TestReorderInsertInOrderShares(t *testing.T) {
	tab := &Table{Name: "g", Columns: []Column{{Name: "genid", Type: TInteger, Primary: true}, {Name: "power", Type: TDouble}}}
	for _, sql := range []string{
		"INSERT INTO g VALUES (1, 2.5)",
		"INSERT INTO g (genid, power) VALUES (1, 2.5)",
		"INSERT INTO g (GENID, Power) VALUES (1, 2.5)",
		"INSERT INTO g (power, genid) VALUES (2.5, 1)",
	} {
		st, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ins := st.(Insert)
		row, err := ReorderInsert(tab, ins)
		if err != nil || !row[0].Equal(IntV(1)) || !row[1].Equal(FloatV(2.5)) {
			t.Fatalf("%s: ReorderInsert = %v, %v", sql, row, err)
		}
		inOrder := !strings.Contains(sql, "(power")
		if shared := &row[0] == &ins.Values[0]; shared != inOrder {
			t.Fatalf("%s: row shares the INSERT's values = %v, want %v", sql, shared, inOrder)
		}
		if allocs := testing.AllocsPerRun(10, func() { _, _ = ReorderInsert(tab, ins) }); inOrder && allocs != 0 {
			t.Fatalf("%s: ReorderInsert allocated %v times, want 0", sql, allocs)
		}
	}
}

func TestFormatInsertRoundTrip(t *testing.T) {
	tab := paperTable(t)
	r := row(t, tab, 7, 1.5, "it's")
	src := FormatInsert(tab, r)
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("re-parse %q: %v", src, err)
	}
	r2, err := ReorderInsert(tab, st.(Insert))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if !r[i].Equal(r2[i]) {
			t.Fatalf("round trip differs at %d: %v vs %v", i, r[i], r2[i])
		}
	}
}

func TestValueStrings(t *testing.T) {
	if Null().String() != "NULL" || IntV(-3).String() != "-3" || FloatV(1.5).String() != "1.5" {
		t.Fatal("value strings")
	}
	if StringV("a'b").String() != "'a''b'" {
		t.Fatalf("quote escape = %s", StringV("a'b").String())
	}
	if TDouble.String() != "DOUBLE PRECISION" || TInteger.String() != "INTEGER" {
		t.Fatal("type names")
	}
}

// Property: FormatInsert always re-parses to the identical row.
func TestPropertyInsertRoundTrip(t *testing.T) {
	tab := &Table{Name: "t", Columns: []Column{
		{Name: "a", Type: TInteger},
		{Name: "b", Type: TDouble},
		{Name: "c", Type: TVarchar, Len: 1000},
	}}
	f := func(a int64, b float64, c string) bool {
		if strings.ContainsAny(c, "\x00") || len(c) > 1000 {
			return true
		}
		r := Row{IntV(a), FloatV(b), StringV(c)}
		st, err := Parse(FormatInsert(tab, r))
		if err != nil {
			return false
		}
		r2, err := ReorderInsert(tab, st.(Insert))
		if err != nil {
			return false
		}
		return r[0].Equal(r2[0]) && r[1].Equal(r2[1]) && r[2].Equal(r2[2])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: WHERE threshold agrees with direct comparison.
func TestPropertyWhereThreshold(t *testing.T) {
	tab := &Table{Name: "t", Columns: []Column{{Name: "x", Type: TInteger}}}
	s := sel(t, "SELECT * FROM t WHERE x < 100")
	f := func(x int16) bool {
		return matches(tab, s, Row{IntV(int64(x))}) == (int64(x) < 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseInsert(b *testing.B) {
	src := "INSERT INTO generator (genid, power, site) VALUES (7, 1.5, 'aberdeen')"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWhereEval(b *testing.B) {
	tab := &Table{Name: "t", Columns: []Column{{Name: "x", Type: TInteger}, {Name: "s", Type: TVarchar, Len: 50}}}
	st, _ := Parse("SELECT * FROM t WHERE x < 100 AND s = 'aberdeen'")
	s := st.(Select)
	r := Row{IntV(7), StringV("aberdeen")}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !matches(tab, s, r) {
			b.Fatal("no match")
		}
	}
}

func TestCreateSQLRoundTrip(t *testing.T) {
	tables := []*Table{
		{Name: "t1", Columns: []Column{
			{Name: "id", Type: TInteger, Primary: true},
			{Name: "x", Type: TReal},
			{Name: "y", Type: TDouble},
			{Name: "s", Type: TChar, Len: 20},
			{Name: "v", Type: TVarchar, Len: 64},
		}},
		{Name: "nokey", Columns: []Column{{Name: "a", Type: TInteger}, {Name: "b", Type: TInteger}}},
	}
	for _, tab := range tables {
		sql := tab.CreateSQL()
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: Parse(CreateSQL) = %v\nsql: %s", tab.Name, err, sql)
		}
		got := st.(CreateTable).Table
		if got.Name != tab.Name || !slices.Equal(got.Columns, tab.Columns) {
			t.Errorf("%s: round-trip changed schema\nsql:  %s\ngot:  %+v\nwant: %+v", tab.Name, sql, got, *tab)
		}
		if got2 := got.CreateSQL(); got2 != sql {
			t.Errorf("%s: CreateSQL not a fixpoint: %q then %q", tab.Name, sql, got2)
		}
	}
}

func TestInsertSQLRoundTrip(t *testing.T) {
	tab := &Table{Name: "t", Columns: []Column{
		{Name: "id", Type: TInteger, Primary: true},
		{Name: "f", Type: TDouble},
		{Name: "g", Type: TDouble},
		{Name: "s", Type: TVarchar, Len: 50},
		{Name: "n", Type: TInteger},
	}}
	rows := []Row{
		{IntV(7), FloatV(1.5), FloatV(480), StringV("it's"), Null()},
		{IntV(-3), FloatV(-0.25), FloatV(1e21), StringV(""), IntV(-9)},
		{IntV(math.MinInt64), FloatV(0), FloatV(-1), StringV("min"), IntV(math.MaxInt64)},
	}
	for _, row := range rows {
		sql := InsertSQL(tab.Name, row)
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("Parse(InsertSQL) = %v\nsql: %s", err, sql)
		}
		got, err := ReorderInsert(tab, st.(Insert))
		if err != nil {
			t.Fatalf("ReorderInsert: %v\nsql: %s", err, sql)
		}
		if !slices.Equal(got, row) {
			t.Errorf("round-trip changed row\nsql:  %s\ngot:  %v\nwant: %v", sql, got, row)
		}
	}
}

// TestSmallestInteger checks that INSERT and WHERE take the smallest
// INTEGER in the form Value.String renders it, while its bare magnitude
// stays a parse error at the magnitude's offset.
func TestSmallestInteger(t *testing.T) {
	st, err := Parse("INSERT INTO t (n) VALUES (-9223372036854775808)")
	if err != nil {
		t.Fatal(err)
	}
	if got := st.(Insert).Values; !slices.Equal(got, Row{IntV(math.MinInt64)}) {
		t.Fatalf("values %v, want [%d]", got, int64(math.MinInt64))
	}
	if _, err := Parse("SELECT * FROM t WHERE n = -9223372036854775808"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		src string
		pos int
	}{
		{"INSERT INTO t VALUES (9223372036854775808)", 22},
		{"INSERT INTO t VALUES (+9223372036854775808)", 23},
		{"CREATE TABLE t (s CHAR(9223372036854775808))", 23},
		{"SELECT * FROM t WHERE n = 9223372036854775808", 26},
	} {
		_, err := Parse(c.src)
		if se := (*selector.Error)(nil); !errors.As(err, &se) || se.Pos != c.pos {
			t.Errorf("Parse(%q) = %v, want an error at offset %d", c.src, err, c.pos)
		}
	}
}

// TestWhereLanguage pins the WHERE language R-GMA accepts: comparisons
// of a column with a literal (one optional sign before a number) and
// IS [NOT] NULL tests, under AND, OR, NOT and parentheses.
func TestWhereLanguage(t *testing.T) {
	for _, where := range []string{
		"a = 1", "A = 1", "a = -1", "a = +1", "a = -1.5e3", "a = 1.e5", "a = .5",
		"a = +'x'", "a = +NULL", "a <> NULL", "JMSType = 'x'", "_a = 007",
		"a = 1 AND (b < 2 OR NOT c IS NOT NULL)", "((a = 1))", "a = 'it''s'",
	} {
		if _, err := Parse("SELECT * FROM t WHERE " + where); err != nil {
			t.Errorf("WHERE %s rejected: %v", where, err)
		}
	}
	for _, where := range []string{
		"(a) = 1", "a = (1)", "a = -(1)", "(a = 1", "+a = 1", "-a = 1", "a = - -1",
		"a = +-1", "a = -'x'", "a = -NULL", "a = TRUE", "a = b", "1 = a", "a$ = 1",
		"a = 1 + 2", "a BETWEEN 1 AND 2", "a IN ('x')", "a LIKE 'x'", "NOT a",
		"TRUE", "a IS NULL IS NULL", "a = 1e", "a = 99999999999999999999", "   ",
	} {
		if _, err := Parse("SELECT * FROM t WHERE " + where); err == nil {
			t.Errorf("WHERE %s accepted", where)
		} else if !errors.Is(err, ErrSyntax) {
			t.Errorf("WHERE %s error not ErrSyntax: %v", where, err)
		}
	}
}

// TestCreateTableRejectsKeywordColumns: a column named by a reserved word
// of the WHERE language could never be filtered, so CREATE TABLE refuses
// it.
func TestCreateTableRejectsKeywordColumns(t *testing.T) {
	for _, kw := range []string{"not", "AND", "Or", "is", "null", "true", "false", "like", "in", "between", "escape"} {
		if _, err := Parse("CREATE TABLE t (a INTEGER, " + kw + " INTEGER)"); !errors.Is(err, ErrSyntax) {
			t.Errorf("column %q: err = %v, want ErrSyntax", kw, err)
		}
	}
	if _, err := Parse("CREATE TABLE t (notes INTEGER, isle INTEGER)"); err != nil {
		t.Errorf("columns merely starting with a keyword rejected: %v", err)
	}
}
