package wal

import "gridmon/internal/walfs"

// A Persister journals one state owner — a broker core (package
// brokerwal) or an R-GMA core (package rgmawal) — into a Log. The
// owner's package keeps only what is its own: op codes and encoders for
// the records its journal callbacks write through Record, apply (replay
// one record through the owner's Restore API) and dump (re-emit the
// owner's state as records of the same encoding, so a snapshot and a
// live record take one decode path).
//
// Quiescence: journal callbacks run inside the owner's locks and append
// from there, which is safe because Append takes only the log's own lock
// and files. The reverse is not: a snapshot dumps the owner's state —
// taking the owner's locks — while it owns the log's file, so a mutation
// blocked in Append meanwhile deadlocks against it. OpenPersister,
// CloseClean and Close therefore require the owner to be quiescent, with
// no mutation in flight; the daemons call them only before their
// listeners accept and after their servers have closed.
type Persister struct {
	log    *Log
	dump   func(emit func(rec []byte) error) error
	detach func()
}

// OpenPersister recovers owner's state from the log in fsys: it replays
// every record through apply, compacts the replayed state into a fresh
// snapshot with dump (so start-up cost does not accrue across restarts;
// an empty or cleanly closed log needs none), and attaches journal
// through owner's SetJournal, whose zero J detaches it again. The
// journal's callbacks record through the returned Persister, which the
// owner's quiescence keeps them from needing before OpenPersister
// returns.
func OpenPersister[J any](fsys walfs.FS, opts Options, owner interface{ SetJournal(J) }, journal J,
	apply func(rec []byte) error, dump func(emit func(rec []byte) error) error) (*Persister, RecoverInfo, error) {
	log, info, err := Open(fsys, opts, apply)
	if err != nil {
		return nil, info, err
	}
	if info.Records > 0 && !info.CleanStart {
		if err := log.Snapshot(dump); err != nil {
			_ = log.Close()
			return nil, info, err
		}
	}
	owner.SetJournal(journal)
	detach := func() {
		var none J
		owner.SetJournal(none)
	}
	return &Persister{log: log, dump: dump, detach: detach}, info, nil
}

// Record appends one record to the log; encode appends its payload to
// buf, which is the log's pending batch, so there is no copy and no
// buffer to pool. encode runs under the log's lock, so it must only
// append: no blocking and no call back into the log. Append errors stop
// here: the first one poisons the log, Err reports it, and the owner —
// which cannot unwind a mutation that already happened — keeps serving
// from memory.
func (p *Persister) Record(encode func(buf []byte) []byte) {
	_ = p.log.append(encode)
}

// Stats returns the log's counters.
func (p *Persister) Stats() Stats { return p.log.Stats() }

// Err reports the error that poisoned the log, if any I/O has failed.
func (p *Persister) Err() error { return p.log.Err() }

// CloseClean detaches from the owner, snapshots its state and installs
// the clean-shutdown marker, letting the next open skip the replay scan.
func (p *Persister) CloseClean() error {
	p.detach()
	return p.log.CloseClean(p.dump)
}

// Close detaches from the owner and closes the log without marking it
// clean; the next open replays as after a crash.
func (p *Persister) Close() error {
	p.detach()
	return p.log.Close()
}
