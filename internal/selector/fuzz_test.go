package selector_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gridmon/internal/message"
	"gridmon/internal/predindex"
	"gridmon/internal/selector"
	"gridmon/internal/sqlmini"
)

// fuzzTable is the row layout FuzzPredicate evaluates against: the
// columns of both conformance suites.
var fuzzTable = &sqlmini.Table{Name: "t", Columns: []sqlmini.Column{
	{Name: "a", Type: sqlmini.TInteger},
	{Name: "b", Type: sqlmini.TInteger},
	{Name: "c", Type: sqlmini.TInteger},
	{Name: "i", Type: sqlmini.TInteger},
	{Name: "x", Type: sqlmini.TDouble},
	{Name: "d", Type: sqlmini.TDouble},
	{Name: "s", Type: sqlmini.TVarchar, Len: 20},
	{Name: "u", Type: sqlmini.TVarchar, Len: 20},
}}

// fuzzNames are the message properties FuzzPredicate sets.
var fuzzNames = []string{"a", "b", "c", "i", "x", "d", "s", "u", "t", "bl", "nan", "raw"}

// fuzzMessage builds a message whose properties take every kind the
// engine distinguishes: integers past 2^53, doubles, NaN, strings,
// booleans, NULL, unselectable bytes, or nothing.
func fuzzMessage(rng *rand.Rand) *message.Message {
	m := message.NewText("x")
	m.Priority = rng.Intn(10)
	m.Type = fmt.Sprintf("v%d", rng.Intn(3))
	for _, name := range fuzzNames {
		switch rng.Intn(10) {
		case 0:
			m.SetProperty(name, message.Int(int32(rng.Intn(21)-10)))
		case 1:
			m.SetProperty(name, message.Long(1<<53+int64(rng.Intn(3))))
		case 2:
			m.SetProperty(name, message.Double(rng.Float64()*20-10))
		case 3:
			m.SetProperty(name, message.Double(math.NaN()))
		case 4:
			m.SetProperty(name, message.String(fmt.Sprintf("v%d", rng.Intn(3))))
		case 5:
			m.SetProperty(name, message.Bool(rng.Intn(2) == 0))
		case 6:
			m.SetProperty(name, message.Null())
		case 7:
			m.SetProperty(name, message.Bytes([]byte{1}))
		}
	}
	return m
}

// fuzzRow builds a row of fuzzTable, sometimes short, with cells of any
// kind in any column: predicates must handle ill-typed cells.
func fuzzRow(rng *rand.Rand) sqlmini.Row {
	row := make(sqlmini.Row, len(fuzzTable.Columns))
	if rng.Intn(8) == 0 {
		row = row[:rng.Intn(len(row))]
	}
	for i := range row {
		switch rng.Intn(6) {
		case 0:
			row[i] = sqlmini.IntV(int64(rng.Intn(21) - 10))
		case 1:
			row[i] = sqlmini.IntV(1<<53 + int64(rng.Intn(3)))
		case 2:
			row[i] = sqlmini.FloatV(rng.Float64()*20 - 10)
		case 3:
			row[i] = sqlmini.FloatV(math.NaN())
		case 4:
			row[i] = sqlmini.StringV(fmt.Sprintf("v%d", rng.Intn(3)))
		}
	}
	return row
}

type msgProbe struct{ m *message.Message }

func (p msgProbe) ProbeAttr(attr string) (predindex.Value, bool) {
	return selector.ProbeValue(p.m, attr)
}

// FuzzPredicate checks the predicate engine in both dialects: parsing
// never panics, and for every accepted input the compiled programs return
// the tree-walking reference's verdict (the message program of a JMS
// selector on generated messages, the CompileFields program of either
// dialect on generated table rows), and the required key admits every
// message and row the predicate accepts. The committed corpus seeds it
// with the cases of the two conformance suites (JMS selectors and R-GMA
// WHERE clauses).
func FuzzPredicate(f *testing.F) {
	f.Add("id < 10000", false, int64(1))
	f.Add("a = 7 AND s < 'b'", true, int64(1))
	f.Fuzz(func(t *testing.T, src string, sql bool, seed int64) {
		d := selector.JMS
		if sql {
			d = selector.SQL
		}
		sel, err := selector.ParseDialect(src, d)
		if err != nil {
			return
		}
		ix := predindex.Build([]predindex.Key{sel.RequiredKey()})
		rowProg := sel.CompileFields(fuzzTable)
		rng := rand.New(rand.NewSource(seed))
		for range 8 {
			m := fuzzMessage(rng)
			want := sel.EvalInterpreted(m)
			if got := sel.Eval(m); got != want {
				t.Fatalf("%q on %v: compiled %v, interpreted %v", src, m, got, want)
			}
			if want == selector.TriTrue && len(ix.Candidates(msgProbe{m}, nil)) == 0 {
				t.Fatalf("%q matches %v but its key %+v does not admit it", src, m, sel.RequiredKey())
			}
			row := fuzzRow(rng)
			rs := &sqlmini.RowSource{Table: fuzzTable, Row: row}
			want = sel.EvalInterpreted(rs)
			if got := selector.EvalFields(rowProg, row); got != want {
				t.Fatalf("%q on row %v: compiled %v, interpreted %v", src, row, got, want)
			}
			if want == selector.TriTrue && len(ix.Candidates(rs, nil)) == 0 {
				t.Fatalf("%q matches row %v but its key %+v does not admit it", src, row, sel.RequiredKey())
			}
		}
	})
}
