package wal

import (
	"reflect"
	"strings"
	"testing"

	"gridmon/internal/walfs"
)

// stubOwner is the smallest state owner: its state is a list of
// records, its journal a func, and it logs every attach, detach, dump
// and file close in events so tests can check their order.
type stubOwner struct {
	state   []string
	journal func(rec string)
	events  []string
}

func (o *stubOwner) SetJournal(j func(rec string)) {
	o.journal = j
	if j == nil {
		o.events = append(o.events, "detach")
	} else {
		o.events = append(o.events, "attach")
	}
}

func (o *stubOwner) mutate(rec string) {
	o.state = append(o.state, rec)
	if o.journal != nil {
		o.journal(rec)
	}
}

// closeLogFS logs each file close into the owner's events.
type closeLogFS struct {
	walfs.FS
	o *stubOwner
}

type closeLogFile struct {
	walfs.File
	name string
	o    *stubOwner
}

func (c closeLogFS) OpenFile(name string, create bool) (walfs.File, error) {
	f, err := c.FS.OpenFile(name, create)
	if err != nil {
		return nil, err
	}
	return closeLogFile{f, name, c.o}, nil
}

func (f closeLogFile) Close() error {
	f.o.events = append(f.o.events, "close "+f.name)
	return f.File.Close()
}

func openStub(t *testing.T, mem walfs.FS) (*stubOwner, *Persister, RecoverInfo) {
	t.Helper()
	o := &stubOwner{}
	var p *Persister
	journal := func(rec string) {
		p.Record(func(b []byte) []byte { return append(b, rec...) })
	}
	apply := func(rec []byte) error {
		o.state = append(o.state, string(rec))
		return nil
	}
	dump := func(emit func(rec []byte) error) error {
		o.events = append(o.events, "dump")
		for _, s := range o.state {
			if err := emit([]byte(s)); err != nil {
				return err
			}
		}
		return nil
	}
	p, info, err := OpenPersister(closeLogFS{mem, o}, Options{}, o, journal, apply, dump)
	if err != nil {
		t.Fatalf("OpenPersister: %v", err)
	}
	return o, p, info
}

func TestPersisterContract(t *testing.T) {
	mem := walfs.NewMem()
	o, p, _ := openStub(t, mem)
	if p.Stats().Snapshots != 0 {
		t.Fatalf("an empty log took %d snapshots at open", p.Stats().Snapshots)
	}
	want := []string{"a", "b", "c"}
	for _, r := range want {
		o.mutate(r)
	}
	o.events = nil
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if o.journal != nil || len(o.events) != 2 || o.events[0] != "detach" || !strings.HasPrefix(o.events[1], "close seg-") {
		t.Fatalf("Close: events %v, want detach, then the segment closes", o.events)
	}

	// A dirty open replays and compacts exactly once.
	o, p, info := openStub(t, mem)
	if info.CleanStart || info.Records != 3 || !reflect.DeepEqual(o.state, want) {
		t.Fatalf("dirty open: info %+v, state %v", info, o.state)
	}
	if n := p.Stats().Snapshots; n != 1 || countDumps(o.events) != 1 {
		t.Fatalf("dirty open took %d snapshots (events %v), want 1", n, o.events)
	}
	o.mutate("d")
	want = append(want, "d")
	o.events = nil
	if err := p.CloseClean(); err != nil {
		t.Fatal(err)
	}
	if o.journal != nil || len(o.events) < 3 || o.events[0] != "detach" || o.events[1] != "dump" {
		t.Fatalf("CloseClean: events %v, want detach, dump, then the files close", o.events)
	}

	// An open after CloseClean is a clean start: no scan, no snapshot.
	o, p, info = openStub(t, mem)
	defer p.Close()
	if !info.CleanStart || !reflect.DeepEqual(o.state, want) {
		t.Fatalf("open after CloseClean: info %+v, state %v", info, o.state)
	}
	if n := p.Stats().Snapshots; n != 0 || countDumps(o.events) != 0 {
		t.Fatalf("clean open took %d snapshots (events %v), want 0", n, o.events)
	}
	if o.events[len(o.events)-1] != "attach" {
		t.Fatalf("clean open: events %v, want attach last", o.events)
	}
}

func countDumps(events []string) (n int) {
	for _, e := range events {
		if e == "dump" {
			n++
		}
	}
	return n
}
