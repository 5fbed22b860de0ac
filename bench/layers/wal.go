package main

import (
	"sync"
	"sync/atomic"

	"gridmon/bench/inputs"
	"gridmon/internal/brokerwal"
	"gridmon/internal/message"
	"gridmon/internal/wal"
	"gridmon/internal/walfs"
	"gridmon/internal/wire"
)

// countingFS counts the writes a log issues, to show how many appends one
// group commit carries.
type countingFS struct {
	walfs.FS
	writes atomic.Int64
}

type countingFile struct {
	walfs.File
	writes *atomic.Int64
}

func (c *countingFS) OpenFile(name string, create bool) (walfs.File, error) {
	f, err := c.FS.OpenFile(name, create)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.writes}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	f.writes.Add(1)
	return f.File.Write(p)
}

func walReplays(r *replayer, seed int64) {
	// wal: a queue_wal journal record is a marshalled message of about
	// this size.
	record := wire.MarshalMessage(nil, inputs.NewGrid(seed, 0, message.Queue("jobs")).Msgs[0])
	nop := func([]byte) error { return nil }
	log, _, err := wal.Open(walfs.NewMem(), wal.Options{}, nop)
	must(err)
	r.ns("wal.append_ns", round{op: func(int) { must(log.Append(record)) }})
	must(log.Close())

	// Group commit needs concurrent appenders; queue_wal has one per
	// publisher connection, and each publish journals twice.
	cfs := &countingFS{FS: walfs.NewMem()}
	log, _, err = wal.Open(cfs, wal.Options{}, nop)
	must(err)
	const appenders, each = 4, 2000
	before := cfs.writes.Load()
	var wg sync.WaitGroup
	for range appenders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				if err := log.Append(record); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	must(log.Err())
	r.out["wal.appends_per_write"] = metric{
		Value: float64(appenders*each) / float64(cfs.writes.Load()-before), Unit: "count", Samples: appenders * each,
	}
	must(log.Close())

	// brokerwal: a queue publish with a consumer attached journals
	// QueueStored and QueueDrained before it returns.
	queue := newRig(seed, message.Queue("jobs"), 1, func(int) string { return "" })
	pers, _, err := brokerwal.Open(walfs.NewMem(), wal.Options{}, queue.b)
	must(err)
	r.ns("brokerwal.queue_cycle_ns", queue.publishRound(4096))
	must(pers.Close())
}
