package simproc

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"gridmon/internal/sim"
)

func TestCPUSerialQueueing(t *testing.T) {
	k := sim.New(1)
	c := NewCPU(k, "hydra1", 1.0)
	var done []sim.Time
	// Three jobs submitted at t=0, each costing 10ms, must finish at
	// 10, 20, 30ms: the CPU is serial.
	for i := 0; i < 3; i++ {
		c.Submit(10*sim.Millisecond, func() { done = append(done, k.Now()) })
	}
	k.Run()
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("job %d done at %v, want %v", i, done[i], want[i])
		}
	}
	if c.Jobs() != 3 {
		t.Fatalf("jobs = %d", c.Jobs())
	}
	if c.BusyTime() != 30*sim.Millisecond {
		t.Fatalf("busy = %v", c.BusyTime())
	}
}

func TestCPUIdleGap(t *testing.T) {
	k := sim.New(1)
	c := NewCPU(k, "n", 1.0)
	c.Submit(5*sim.Millisecond, nil)
	k.At(100*sim.Millisecond, func() {
		c.Submit(5*sim.Millisecond, nil)
	})
	k.Run()
	if k.Now() != 105*sim.Millisecond {
		t.Fatalf("now = %v", k.Now())
	}
	if c.BusyTime() != 10*sim.Millisecond {
		t.Fatalf("busy = %v, want 10ms", c.BusyTime())
	}
}

func TestCPUSpeedScaling(t *testing.T) {
	k := sim.New(1)
	slow := NewCPU(k, "slow", 0.5)
	var at sim.Time
	slow.Submit(10*sim.Millisecond, func() { at = k.Now() })
	k.Run()
	if at != 20*sim.Millisecond {
		t.Fatalf("slow CPU finished at %v, want 20ms", at)
	}
}

func TestCPUQueueDelay(t *testing.T) {
	k := sim.New(1)
	c := NewCPU(k, "n", 1.0)
	if c.QueueDelay() != 0 {
		t.Fatal("idle CPU has queue delay")
	}
	c.Submit(30*sim.Millisecond, nil)
	c.Submit(30*sim.Millisecond, nil)
	if c.QueueDelay() != 60*sim.Millisecond {
		t.Fatalf("queue delay = %v, want 60ms", c.QueueDelay())
	}
}

func TestCPUBadInputsPanic(t *testing.T) {
	k := sim.New(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-positive speed did not panic")
			}
		}()
		NewCPU(k, "x", 0)
	}()
	c := NewCPU(k, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative cost did not panic")
		}
	}()
	c.Submit(-1, nil)
}

func TestHeapAllocFreeOOM(t *testing.T) {
	h := NewHeap("jvm", 1000, 100)
	if h.Used() != 100 || h.Peak() != 100 {
		t.Fatalf("baseline not counted: used=%d peak=%d", h.Used(), h.Peak())
	}
	if err := h.Alloc(800); err != nil {
		t.Fatalf("alloc: %v", err)
	}
	if err := h.Alloc(200); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if h.Failures() != 1 {
		t.Fatalf("failures = %d", h.Failures())
	}
	if h.Used() != 900 {
		t.Fatalf("failed alloc changed usage: %d", h.Used())
	}
	h.Free(400)
	if err := h.Alloc(200); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if h.Peak() != 900 {
		t.Fatalf("peak = %d, want 900", h.Peak())
	}
	if h.Consumption() != 800 {
		t.Fatalf("consumption = %d, want 800", h.Consumption())
	}
}

func TestHeapUnlimited(t *testing.T) {
	h := NewHeap("big", 0, 0)
	if err := h.Alloc(1 << 40); err != nil {
		t.Fatalf("unlimited heap refused alloc: %v", err)
	}
}

func TestHeapFreeBelowBaselinePanics(t *testing.T) {
	h := NewHeap("jvm", 1000, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("free below baseline did not panic")
		}
	}()
	h.Free(1)
}

func TestHeapNegativePanics(t *testing.T) {
	h := NewHeap("jvm", 0, 0)
	func() {
		defer func() { recover() }()
		h.Alloc(-1)
		t.Fatal("negative alloc did not panic")
	}()
	defer func() {
		if recover() == nil {
			t.Fatal("negative free did not panic")
		}
	}()
	h.Free(-1)
}

// TestSharedHeapConcurrentNeverOvershoots hammers one heap, shared by
// many goroutines, with Alloc/Free and checks the atomic limit
// invariant: no interleaving may push usage past the limit, and
// balanced alloc/free pairs must return usage exactly to the baseline.
func TestSharedHeapConcurrentNeverOvershoots(t *testing.T) {
	const limit, workers, rounds = 1000, 8, 2000
	h := NewHeap("t", limit, 0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := h.Alloc(n); err == nil {
					if u := h.Used(); u > limit {
						t.Errorf("used %d exceeds limit %d", u, limit)
					}
					h.Free(n)
				}
			}
		}(int64(50 + 10*w))
	}
	wg.Wait()
	if h.Used() != 0 {
		t.Fatalf("unbalanced accounting: used=%d", h.Used())
	}
	if h.Peak() > limit {
		t.Fatalf("peak %d exceeds limit %d", h.Peak(), limit)
	}
}

func TestSamplerIdleFractions(t *testing.T) {
	k := sim.New(1)
	c := NewCPU(k, "n", 1.0)
	h := NewHeap("n", 0, 0)
	s := NewSampler(k, c, h, sim.Second)
	// Busy 250ms out of each second: submit 250ms of work at each second.
	for i := 0; i < 5; i++ {
		k.At(sim.Time(i)*sim.Second, func() {
			c.Submit(250*sim.Millisecond, nil)
		})
	}
	k.RunUntil(5 * sim.Second)
	s.Stop()
	samples := s.Samples()
	if len(samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(samples))
	}
	for i, sm := range samples {
		if sm.CPUIdle < 0.74 || sm.CPUIdle > 0.76 {
			t.Fatalf("sample %d idle = %v, want ~0.75", i, sm.CPUIdle)
		}
	}
	if mi := s.MeanIdle(); mi < 0.74 || mi > 0.76 {
		t.Fatalf("mean idle = %v", mi)
	}
}

func TestSamplerEmptyMeanIdle(t *testing.T) {
	k := sim.New(1)
	s := NewSampler(k, NewCPU(k, "n", 1), NewHeap("n", 0, 0), sim.Second)
	if s.MeanIdle() != 1 {
		t.Fatalf("empty sampler mean idle = %v", s.MeanIdle())
	}
	s.Stop()
}

func TestSamplerMemory(t *testing.T) {
	k := sim.New(1)
	c := NewCPU(k, "n", 1.0)
	h := NewHeap("n", 0, 50)
	s := NewSampler(k, c, h, sim.Second)
	k.At(500*sim.Millisecond, func() {
		if err := h.Alloc(1000); err != nil {
			t.Errorf("alloc: %v", err)
		}
	})
	k.RunUntil(2 * sim.Second)
	s.Stop()
	if got := s.Samples()[0].MemUsed; got != 1050 {
		t.Fatalf("sample mem = %d, want 1050", got)
	}
}

// Property: the CPU never reorders jobs and completion times are spaced by
// at least the service cost.
func TestPropertyCPUFIFO(t *testing.T) {
	f := func(costs []uint16) bool {
		k := sim.New(11)
		c := NewCPU(k, "n", 1.0)
		var done []sim.Time
		var order []int
		for i, cost := range costs {
			i := i
			c.Submit(sim.Time(cost)*sim.Microsecond, func() {
				done = append(done, k.Now())
				order = append(order, i)
			})
		}
		k.Run()
		if len(done) != len(costs) {
			return false
		}
		for i := 1; i < len(done); i++ {
			if order[i] != order[i-1]+1 {
				return false
			}
			gap := done[i] - done[i-1]
			if gap != sim.Time(costs[i])*sim.Microsecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: heap usage equals baseline + sum(allocs) - sum(frees) and never
// exceeds the limit.
func TestPropertyHeapAccounting(t *testing.T) {
	f := func(ops []int16) bool {
		const limit = 1 << 20
		h := NewHeap("p", limit, 64)
		var live int64
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				if err := h.Alloc(n); err == nil {
					live += n
				}
			} else {
				n = -n
				if n > live {
					n = live
				}
				h.Free(n)
				live -= n
			}
			if h.Used() != 64+live || h.Used() > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
