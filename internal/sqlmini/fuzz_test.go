package sqlmini_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"gridmon/internal/selector"
	"gridmon/internal/sqlmini"
)

// fuzzSchema is the table FuzzParse maps accepted INSERTs onto and
// evaluates accepted WHERE clauses against: the table of
// TestInsertSQLRoundTrip, with no string length limit.
var fuzzSchema = &sqlmini.Table{Name: "t", Columns: []sqlmini.Column{
	{Name: "id", Type: sqlmini.TInteger, Primary: true},
	{Name: "f", Type: sqlmini.TDouble},
	{Name: "g", Type: sqlmini.TDouble},
	{Name: "s", Type: sqlmini.TVarchar},
	{Name: "n", Type: sqlmini.TInteger},
}}

// fuzzRow builds a row of fuzzSchema, sometimes short, with cells of any
// kind in any column.
func fuzzRow(rng *rand.Rand) sqlmini.Row {
	row := make(sqlmini.Row, rng.Intn(len(fuzzSchema.Columns)+1))
	for i := range row {
		switch rng.Intn(5) {
		case 0:
			row[i] = sqlmini.IntV(int64(rng.Intn(21) - 10))
		case 1:
			row[i] = sqlmini.FloatV(rng.Float64()*20 - 10)
		case 2:
			row[i] = sqlmini.FloatV(math.NaN())
		case 3:
			row[i] = sqlmini.StringV(string(rune('a' + rng.Intn(3))))
		}
	}
	return row
}

// FuzzParse checks the statement parser: Parse never panics; an error
// is a *selector.Error under ErrSyntax that points into the statement;
// an accepted CREATE TABLE round-trips through CreateSQL to an equal
// Table; an accepted INSERT that maps onto fuzzSchema round-trips
// through ReorderInsert and InsertSQL to an equal row; and an accepted
// SELECT's WHERE, which is a suffix of the statement, has the same
// required key and the same verdicts on generated rows as
// selector.ParseDialect gives the same text. The committed corpus holds
// the cases of TestParseErrors, TestWhereLanguage and the round-trip
// tests.
func FuzzParse(f *testing.F) {
	f.Add("SELECT * FROM t WHERE id = 7 AND s < 'b'", int64(1))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		st, err := sqlmini.Parse(src)
		if err != nil {
			var se *selector.Error
			if !errors.Is(err, sqlmini.ErrSyntax) || !errors.As(err, &se) || se.Expr != src || se.Pos < 0 || se.Pos > len(src) {
				t.Fatalf("Parse(%q) error %v: want a *selector.Error into the statement, under ErrSyntax", src, err)
			}
			return
		}
		switch st := st.(type) {
		case sqlmini.CreateTable:
			sql := st.Table.CreateSQL()
			back, err := sqlmini.Parse(sql)
			if err != nil {
				t.Fatalf("Parse(%q) accepted, Parse(CreateSQL %q) = %v", src, sql, err)
			}
			if got, ok := back.(sqlmini.CreateTable); !ok || got.Table.Name != st.Table.Name || !slices.Equal(got.Table.Columns, st.Table.Columns) {
				t.Fatalf("CREATE %q round-trips through %q to %+v, want %+v", src, sql, back, st)
			}
		case sqlmini.Insert:
			row, err := sqlmini.ReorderInsert(fuzzSchema, st)
			if err != nil {
				return
			}
			sql := sqlmini.InsertSQL(fuzzSchema.Name, row)
			back, err := sqlmini.Parse(sql)
			if err != nil {
				t.Fatalf("INSERT %q: Parse(InsertSQL %q) = %v", src, sql, err)
			}
			ins, ok := back.(sqlmini.Insert)
			if !ok {
				t.Fatalf("INSERT %q: InsertSQL %q parsed as %T", src, sql, back)
			}
			if got, err := sqlmini.ReorderInsert(fuzzSchema, ins); err != nil || !slices.Equal(got, row) {
				t.Fatalf("INSERT %q round-trips through %q to %v (%v), want %v", src, sql, got, err, row)
			}
		case sqlmini.Select:
			if st.Where == nil {
				return
			}
			text := st.Where.String()
			if !strings.HasSuffix(src, text) {
				t.Fatalf("SELECT %q: WHERE text %q is not the statement's tail", src, text)
			}
			want, err := selector.ParseDialect(text, selector.SQL)
			if err != nil {
				t.Fatalf("SELECT %q accepted, ParseDialect(%q) = %v", src, text, err)
			}
			if !reflect.DeepEqual(st.Where.RequiredKey(), want.RequiredKey()) {
				t.Fatalf("SELECT %q: key %+v, ParseDialect's %+v", src, st.Where.RequiredKey(), want.RequiredKey())
			}
			prog := (*selector.Program)(st.Compiled(fuzzSchema))
			wantProg := want.CompileFields(fuzzSchema)
			rng := rand.New(rand.NewSource(seed))
			for range 8 {
				row := fuzzRow(rng)
				rs := &sqlmini.RowSource{Table: fuzzSchema, Row: row}
				got, w := selector.EvalFields(prog, row), selector.EvalFields(wantProg, row)
				gi, wi := st.Where.EvalInterpreted(rs), want.EvalInterpreted(rs)
				if got != w || gi != wi || got != gi {
					t.Fatalf("SELECT %q on %v: compiled %v, interpreted %v; ParseDialect's %v, %v", src, row, got, gi, w, wi)
				}
			}
		}
	})
}
