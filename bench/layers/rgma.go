package main

import (
	"time"

	"gridmon/bench/inputs"
	"gridmon/internal/rgma"
	"gridmon/internal/rgmacore"
	"gridmon/internal/sqlmini"
)

func rgmaReplays(r *replayer, seed int64) {
	tuples := inputs.NewTuples(seed, 512)
	n := tuples.Len()
	stmt := func(i int) string { i %= n; return tuples.Batches[i/inputs.BatchSize][i%inputs.BatchSize] }

	r.ns("sqlmini.parse_insert_ns", round{op: func(i int) { _, _ = sqlmini.Parse(stmt(i)) }})

	st, err := sqlmini.Parse(inputs.TableSQL)
	must(err)
	table := st.(sqlmini.CreateTable).Table
	st, err = sqlmini.Parse(inputs.PushQuery)
	must(err)
	where := st.(sqlmini.Select).Compiled(&table)
	rows := make([]sqlmini.Row, n)
	for i := range rows {
		st, err := sqlmini.Parse(stmt(i))
		must(err)
		rows[i], err = sqlmini.ReorderInsert(&table, st.(sqlmini.Insert))
		must(err)
	}
	r.ns("sqlmini.where_eval_ns", round{op: func(i int) { where.Eval(rows[i%n]) }})

	// rgmacore: the table of rgma_stream with its two consumers, one
	// push-fed (the sink discards) and one buffered for Pop.
	core := rgmacore.New(rgmacore.Config{})
	_, err = core.CreateTable(inputs.TableSQL)
	must(err)
	retention := rgmacore.RetentionFromSeconds(2)
	prod, err := core.CreateProducer("generator", retention, retention)
	must(err)
	_, err = core.CreateConsumer(inputs.PushQuery, rgma.ContinuousQuery, func(int64, *rgmacore.Streamed) {})
	must(err)
	poll, err := core.CreateConsumer(inputs.PollQuery, rgma.ContinuousQuery, nil)
	must(err)
	drain := func() {
		_, err := core.Pop(poll.ID())
		must(err)
	}
	// Rounds stay under the buffered consumer's capacity, so no insert
	// pays for dropping the oldest tuple.
	const perRound = rgmacore.DefaultMaxBuffered / 2
	r.ns("rgmacore.insert_ns", round{
		maxN:  perRound,
		op:    func(i int) { must(core.Insert(prod.ID(), stmt(i))) },
		after: drain,
	})

	// Pop is timed per tuple returned: fill the buffer untimed, then time
	// the one call that empties it.
	var perTuple []float64
	popped := 0
	for start := time.Now(); time.Since(start) < r.slot || len(perTuple) < 3; {
		for i := range perRound {
			must(core.Insert(prod.ID(), stmt(i)))
		}
		t0 := time.Now()
		got, err := core.Pop(poll.ID())
		d := time.Since(t0)
		must(err)
		popped += len(got)
		perTuple = append(perTuple, float64(d)/float64(len(got)))
	}
	r.out["rgmacore.pop_ns_per_tuple"] = metric{Value: medianOf(perTuple), Unit: "ns", Samples: popped}
}
