package rgmacore

import (
	"fmt"
	"reflect"
	"testing"

	"gridmon/internal/rgma"
	"gridmon/internal/sim"
)

// TestOracleCoreHandComputed validates the oracle on its own, against
// expectations worked out by hand — no Core involved.
func TestOracleCoreHandComputed(t *testing.T) {
	const (
		ddlG = "CREATE TABLE g (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))"
		ddlH = "CREATE TABLE h (genid INTEGER PRIMARY KEY, seq INTEGER, site CHAR(20))"
	)
	ins := func(table string, genid int, seq string) string {
		return fmt.Sprintf("INSERT INTO %s (genid, seq, site) VALUES (%d, %s, 'a')", table, genid, seq)
	}
	// rows renders what a pop carries as "genid/seq" per tuple.
	rows := func(ts []PopTuple) []string {
		var out []string
		for _, tu := range ts {
			out = append(out, tu.Row[0]+"/"+tu.Row[1])
		}
		return out
	}
	cont, latest, history := rgma.ContinuousQuery, rgma.LatestQuery, rgma.HistoryQuery

	cases := []struct {
		name string
		run  func(o *oracleCore)
		want map[int64][]string // consumer id → popped "genid/seq"
	}{
		{
			name: "shared WHERE",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				o.addConsumer(2, "SELECT * FROM g WHERE seq < 50", cont)
				o.addConsumer(3, "SELECT * FROM g WHERE seq < 50", cont)
				o.insert(1, ins("g", 1, "10"), 0)
				o.insert(1, ins("g", 2, "70"), 0)
			},
			want: map[int64][]string{2: {"1/10"}, 3: {"1/10"}},
		},
		{
			name: "disjoint genid = k",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				for k := int64(0); k < 3; k++ {
					o.addConsumer(10+k, fmt.Sprintf("SELECT * FROM g WHERE genid = %d", k), cont)
				}
				o.insert(1, ins("g", 1, "5"), 0)
				o.insert(1, ins("g", 2, "6"), 0)
				o.insert(1, ins("g", 7, "7"), 0)
			},
			want: map[int64][]string{10: nil, 11: {"1/5"}, 12: {"2/6"}},
		},
		{
			name: "NULL operand is unknown, not true",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				o.addConsumer(2, "SELECT * FROM g WHERE seq < 50", cont)
				o.addConsumer(3, "SELECT * FROM g WHERE NOT seq < 50", cont)
				o.addConsumer(4, "SELECT * FROM g WHERE seq IS NULL", cont)
				o.addConsumer(5, "SELECT * FROM g", cont)
				o.insert(1, ins("g", 1, "NULL"), 0)
			},
			want: map[int64][]string{2: nil, 3: nil, 4: {"1/NULL"}, 5: {"1/NULL"}},
		},
		{
			name: "consumer closed mid-stream; other tables not streamed",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				o.addProducer(2, "h", 0, 0)
				o.addConsumer(3, "SELECT * FROM g", cont)
				o.addConsumer(4, "SELECT * FROM g", cont)
				o.insert(1, ins("g", 1, "1"), 0)
				o.closeConsumer(3)
				o.insert(1, ins("g", 2, "2"), 0)
				o.insert(2, ins("h", 3, "3"), 0)
			},
			want: map[int64][]string{3: nil, 4: {"1/1", "2/2"}},
		},
		{
			name: "continuous pop drains",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				o.addConsumer(2, "SELECT * FROM g", cont)
				o.insert(1, ins("g", 1, "1"), 0)
				if got := rows(o.pop(2, 0)); !reflect.DeepEqual(got, []string{"1/1"}) {
					panic(fmt.Sprint("first pop: ", got))
				}
				o.insert(1, ins("g", 2, "2"), 0)
			},
			want: map[int64][]string{2: {"2/2"}},
		},
		{
			name: "latest keeps one row per key, history all; producers in registration order; closed producer gone",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", 0, 0)
				o.addProducer(2, "g", 0, 0)
				o.addProducer(3, "g", 0, 0)
				o.addConsumer(4, "SELECT * FROM g WHERE seq < 50", latest)
				o.addConsumer(5, "SELECT * FROM g", history)
				o.insert(2, ins("g", 1, "10"), 0)
				o.insert(1, ins("g", 1, "20"), 0)
				o.insert(1, ins("g", 1, "30"), 0)
				o.insert(1, ins("g", 2, "99"), 0)
				o.insert(3, ins("g", 9, "9"), 0)
				o.closeProducer(3)
			},
			want: map[int64][]string{4: {"1/30", "1/10"}, 5: {"1/20", "1/30", "2/99", "1/10"}},
		},
		{
			name: "retention: expired rows leave latest and history",
			run: func(o *oracleCore) {
				o.addProducer(1, "g", sim.Second, 2*sim.Second)
				o.addConsumer(2, "SELECT * FROM g", latest)
				o.addConsumer(3, "SELECT * FROM g", history)
				o.insert(1, ins("g", 1, "1"), 0)
				o.insert(1, ins("g", 2, "2"), sim.Second)
				// popped below at t = 1.5 s: row 1 is past the 1 s latest
				// retention but within the 2 s history retention.
			},
			want: map[int64][]string{2: {"2/2"}, 3: {"1/1", "2/2"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracleCore()
			o.createTable(ddlG)
			o.createTable(ddlH)
			tc.run(o)
			for id, want := range tc.want {
				if got := rows(o.pop(id, 1500*sim.Millisecond)); !reflect.DeepEqual(got, want) {
					t.Errorf("consumer %d popped %v, want %v", id, got, want)
				}
			}
		})
	}
}
