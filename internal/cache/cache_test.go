package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func newTestCache(demand, pf, nodes, maxPF, maxPerNode int) (*sim.Kernel, *Cache) {
	k := sim.NewKernel()
	c := New(k, Options{
		DemandFrames:         demand,
		PrefetchFrames:       pf,
		Nodes:                nodes,
		MaxPrefetchedUnused:  maxPF,
		MaxPerNodePrefetched: maxPerNode,
	})
	return k, c
}

// fakeFetch stands in for a disk request: an event that fires after d.
func fakeFetch(k *sim.Kernel, d sim.Duration) (*sim.Event, sim.Time) {
	ev := sim.NewEvent(k)
	at := k.Now().Add(d)
	k.Schedule(at, ev.Fire)
	return ev, at
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "invalid" || Fetching.String() != "fetching" || Ready.String() != "ready" {
		t.Fatal("state names wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still format")
	}
}

func TestPrefetchFailString(t *testing.T) {
	for f, want := range map[PrefetchFail]string{
		PrefetchOK:      "ok",
		FailInCache:     "in-cache",
		FailGlobalLimit: "global-limit",
		FailNodeLimit:   "node-limit",
		FailNoBuffer:    "no-buffer",
	} {
		if f.String() != want {
			t.Fatalf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}

// TestBlockIndex checks the block map's contract across cache sizes:
// every mapped block is found, evictions delete their blocks, and the
// audit's size check agrees with the frames in service.
func TestBlockIndex(t *testing.T) {
	t.Parallel()
	for _, frames := range []int{1, 80, 4096} {
		_, c := newTestCache(frames, 0, 1, 0, 0)
		bufs := make([]*Buffer, frames)
		for i := range bufs {
			if bufs[i] = c.AllocateWrite(0, i*7); bufs[i] == nil {
				t.Fatalf("frames %d: allocation %d failed", frames, i)
			}
		}
		for i, b := range bufs {
			if c.Lookup(i*7) != b {
				t.Fatalf("frames %d: block %d not found", frames, i*7)
			}
			if c.Contains(i*7 + 1) {
				t.Fatalf("frames %d: phantom block %d", frames, i*7+1)
			}
		}
		// Unpin the even blocks and claim that many fresh frames: LRU
		// recycling evicts exactly the even blocks from the map.
		evicted := 0
		for i := 0; i < frames; i += 2 {
			c.Unpin(bufs[i])
			evicted++
		}
		for j := 0; j < evicted; j++ {
			if c.AllocateWrite(0, frames*7+j) == nil {
				t.Fatalf("frames %d: reallocation %d failed", frames, j)
			}
		}
		for i, b := range bufs {
			want := b
			if i%2 == 0 {
				want = nil
			}
			if got := c.Lookup(i * 7); got != want {
				t.Fatalf("frames %d: block %d after eviction: got %p want %p", frames, i*7, got, want)
			}
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("frames %d: %v", frames, err)
		}
	}
}

func TestDemandFetchLifecycle(t *testing.T) {
	k, c := newTestCache(4, 0, 2, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		if c.Contains(7) {
			t.Error("empty cache claims block 7")
		}
		buf := c.AllocateDemand(0, 7)
		if buf == nil {
			t.Fatal("allocation failed with free frames")
		}
		if buf.State() != Fetching || buf.Pins() != 1 || buf.Block() != 7 {
			t.Fatalf("after alloc: %v pins=%d block=%d", buf.State(), buf.Pins(), buf.Block())
		}
		ev, at := fakeFetch(k, 30*sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		if buf.State() != Ready {
			t.Fatalf("after IO: state %v", buf.State())
		}
		c.Unpin(buf)
		if c.AvailableFrames(DemandClass) != 4 {
			t.Fatalf("available = %d, want 4 (3 free + 1 reusable)", c.AvailableFrames(DemandClass))
		}
		if !c.Contains(7) {
			t.Error("reusable buffer should still satisfy lookups")
		}
		c.CheckInvariants()
	})
	k.Run()
	s := c.Stats()
	if s.Misses != 1 || s.ReadyHits != 0 || s.UnreadyHits != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReadyAndUnreadyHits(t *testing.T) {
	k, c := newTestCache(4, 0, 2, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 3)
		ev, at := fakeFetch(k, 30*sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		// Second requester while fetching: unready hit.
		b2 := c.Lookup(3)
		if b2 != buf {
			t.Fatal("lookup missed in-flight block")
		}
		if ready := c.Pin(1, b2); ready {
			t.Error("Pin during fetch should report unready")
		}
		ev.Wait(p)
		// Third requester after completion: ready hit.
		if ready := c.Pin(1, c.Lookup(3)); !ready {
			t.Error("Pin after fetch should report ready")
		}
		c.Unpin(buf)
		c.Unpin(buf)
		c.Unpin(buf)
		c.CheckInvariants()
	})
	k.Run()
	s := c.Stats()
	if s.UnreadyHits != 1 || s.ReadyHits != 1 || s.Misses != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if s.HitRatio() != 2.0/3.0 {
		t.Fatalf("hit ratio = %v", s.HitRatio())
	}
	if s.MissRatio() != 1.0/3.0 {
		t.Fatalf("miss ratio = %v", s.MissRatio())
	}
}

func TestEmptyStatsRatios(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 || s.MissRatio() != 0 {
		t.Fatal("empty ratios should be 0")
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	k, c := newTestCache(2, 2, 2, 2, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf, res := c.AllocatePrefetch(1, 9)
		if res != PrefetchOK {
			t.Fatalf("prefetch failed: %v", res)
		}
		if buf.Pins() != 0 || !buf.Prefetched() {
			t.Fatalf("prefetch buffer: pins=%d prefetched=%v", buf.Pins(), buf.Prefetched())
		}
		if c.PrefetchedUnused() != 1 {
			t.Fatalf("prefetchedUnused = %d", c.PrefetchedUnused())
		}
		ev, at := fakeFetch(k, 30*sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		p.Advance(40 * sim.Millisecond)
		// Consume: first use of the prefetched block.
		if ready := c.Pin(0, c.Lookup(9)); !ready {
			t.Error("block should be ready after 40ms")
		}
		if c.PrefetchedUnused() != 0 || buf.Prefetched() {
			t.Error("consumption did not clear prefetch accounting")
		}
		c.Unpin(buf)
		c.CheckInvariants()
	})
	k.Run()
	s := c.Stats()
	if s.PrefetchesIssued != 1 || s.PrefetchesConsumed != 1 {
		t.Fatalf("prefetch stats: %+v", s)
	}
	if c.WastedPrefetches() != 0 {
		t.Fatalf("wasted = %d", c.WastedPrefetches())
	}
}

func TestPrefetchGlobalLimit(t *testing.T) {
	k, c := newTestCache(8, 2, 2, 2, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			buf, res := c.AllocatePrefetch(0, i)
			if res != PrefetchOK {
				t.Fatalf("prefetch %d failed: %v", i, res)
			}
			ev, at := fakeFetch(k, sim.Millisecond)
			c.BeginFetch(buf, ev, at)
		}
		if _, res := c.AllocatePrefetch(0, 99); res != FailGlobalLimit {
			t.Fatalf("expected global limit, got %v", res)
		}
		c.CheckInvariants()
	})
	k.Run()
	if c.Stats().FailsGlobalLimit != 1 {
		t.Fatalf("limit failures: %+v", c.Stats())
	}
}

func TestPrefetchPerNodeLimit(t *testing.T) {
	k, c := newTestCache(2, 8, 2, 8, 2)
	k.Spawn("p", 0, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			buf, res := c.AllocatePrefetch(1, i)
			if res != PrefetchOK {
				t.Fatalf("prefetch %d: %v", i, res)
			}
			ev, at := fakeFetch(k, sim.Millisecond)
			c.BeginFetch(buf, ev, at)
		}
		if _, res := c.AllocatePrefetch(1, 50); res != FailNodeLimit {
			t.Fatalf("expected node limit, got %v", res)
		}
		// Other node unaffected.
		if _, res := c.AllocatePrefetch(0, 60); res != PrefetchOK {
			t.Fatalf("node 0 should be allowed: %v", res)
		}
		c.CheckInvariants()
	})
	k.Run()
	if c.Stats().FailsNodeLimit != 1 {
		t.Fatalf("node limit failures: %+v", c.Stats())
	}
}

func TestPrefetchInCache(t *testing.T) {
	k, c := newTestCache(2, 2, 1, 4, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 5)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		if _, res := c.AllocatePrefetch(0, 5); res != FailInCache {
			t.Fatalf("expected in-cache, got %v", res)
		}
		c.Unpin(buf)
	})
	k.Run()
}

func TestPrefetchNoBuffer(t *testing.T) {
	k, c := newTestCache(1, 1, 1, 5, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf, res := c.AllocatePrefetch(0, 0)
		if res != PrefetchOK {
			t.Fatalf("first prefetch: %v", res)
		}
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		if _, res := c.AllocatePrefetch(0, 1); res != FailNoBuffer {
			t.Fatalf("expected no-buffer, got %v", res)
		}
	})
	k.Run()
	if c.Stats().FailsNoBuffer != 1 {
		t.Fatalf("no-buffer failures: %+v", c.Stats())
	}
}

func TestEvictionLRUOrder(t *testing.T) {
	k, c := newTestCache(2, 0, 1, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		// Fill both frames with blocks 0, 1, unpin both (0 is older).
		for b := 0; b < 2; b++ {
			buf := c.AllocateDemand(0, b)
			ev, at := fakeFetch(k, sim.Millisecond)
			c.BeginFetch(buf, ev, at)
			ev.Wait(p)
			c.Unpin(buf)
		}
		// Third block must evict block 0 (LRU head).
		buf := c.AllocateDemand(0, 2)
		if buf == nil {
			t.Fatal("allocation should evict")
		}
		if c.Contains(0) {
			t.Error("block 0 should have been evicted")
		}
		if !c.Contains(1) {
			t.Error("block 1 should survive")
		}
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		c.Unpin(buf)
		c.CheckInvariants()
	})
	k.Run()
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

func TestReusableHitRemovesFromLRU(t *testing.T) {
	k, c := newTestCache(2, 0, 1, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 0)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		c.Unpin(buf) // now reusable
		// Hit it again: should pin and leave the reusable list.
		if ready := c.Pin(0, c.Lookup(0)); !ready {
			t.Fatal("expected ready hit")
		}
		if c.AvailableFrames(DemandClass) != 1 {
			t.Fatalf("available = %d, want 1", c.AvailableFrames(DemandClass))
		}
		c.Unpin(buf)
		c.CheckInvariants()
	})
	k.Run()
}

func TestAllocateDemandExhausted(t *testing.T) {
	k, c := newTestCache(1, 0, 1, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 0)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		// Frame is pinned and fetching; a second demand gets nil.
		if got := c.AllocateDemand(0, 1); got != nil {
			t.Fatal("allocation should fail with all frames pinned")
		}
		c.Unpin(buf)
	})
	k.Run()
}

func TestFreedWakesWaiter(t *testing.T) {
	k, c := newTestCache(1, 0, 1, 0, 0)
	var woke bool
	k.Spawn("holder", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 0)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		p.Advance(10 * sim.Millisecond)
		c.Unpin(buf)
	})
	k.Spawn("waiter", 0, func(p *sim.Proc) {
		p.Advance(sim.Microsecond) // let holder allocate first
		for c.AvailableFrames(DemandClass) == 0 {
			c.Freed.Sleep(p)
		}
		woke = true
		if p.Now() < sim.Time(10*sim.Millisecond) {
			t.Errorf("woke too early at %v", p.Now())
		}
	})
	k.Run()
	if !woke {
		t.Fatal("waiter never woke")
	}
}

func TestPinPanicsOnInvalid(t *testing.T) {
	_, c := newTestCache(1, 0, 1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Pin on invalid buffer did not panic")
		}
	}()
	c.Pin(0, &c.arena[0])
}

func TestUnpinPanicsWithoutPin(t *testing.T) {
	k, c := newTestCache(1, 0, 1, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 0)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		c.Unpin(buf)
		defer func() {
			if recover() == nil {
				t.Error("double Unpin did not panic")
			}
		}()
		c.Unpin(buf)
	})
	k.Run()
}

func TestAllocateDemandPanicsIfCached(t *testing.T) {
	k, c := newTestCache(2, 0, 1, 0, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(0, 0)
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		defer func() {
			if recover() == nil {
				t.Error("duplicate AllocateDemand did not panic")
			}
		}()
		c.AllocateDemand(0, 0)
	})
	k.Run()
}

func TestNewPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { New(sim.NewKernel(), Options{DemandFrames: 0, Nodes: 1}) },
		func() { New(sim.NewKernel(), Options{DemandFrames: 1, Nodes: 0}) },
		func() { New(sim.NewKernel(), Options{DemandFrames: 1, PrefetchFrames: -1, Nodes: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestRandomWorkloadInvariants drives the cache with a random mixture of
// operations and checks invariants continuously.
func TestRandomWorkloadInvariants(t *testing.T) {
	check := func(seed uint64) bool {
		k, c := newTestCache(4, 4, 4, 4, 2)
		r := rng.New(seed, 0)
		ok := true
		k.Spawn("driver", 0, func(p *sim.Proc) {
			type pinned struct{ buf *Buffer }
			var pins []pinned
			for op := 0; op < 300; op++ {
				block := r.Intn(16)
				switch r.Intn(4) {
				case 0: // demand read
					if buf := c.Lookup(block); buf != nil {
						ready := c.Pin(r.Intn(4), buf)
						if !ready {
							buf.IODone.Wait(p)
						}
						pins = append(pins, pinned{buf})
					} else if buf := c.AllocateDemand(r.Intn(4), block); buf != nil {
						ev, at := fakeFetch(k, sim.Duration(1+r.Intn(5))*sim.Millisecond)
						c.BeginFetch(buf, ev, at)
						ev.Wait(p)
						pins = append(pins, pinned{buf})
					}
				case 1: // prefetch
					if buf, res := c.AllocatePrefetch(r.Intn(4), block); res == PrefetchOK {
						ev, at := fakeFetch(k, sim.Duration(1+r.Intn(5))*sim.Millisecond)
						c.BeginFetch(buf, ev, at)
					}
				case 2: // unpin something
					if len(pins) > 0 {
						i := r.Intn(len(pins))
						c.Unpin(pins[i].buf)
						pins = append(pins[:i], pins[i+1:]...)
					}
				case 3: // let time pass
					p.Advance(sim.Duration(r.Intn(4)) * sim.Millisecond)
				}
				c.CheckInvariants()
			}
			for _, pn := range pins {
				c.Unpin(pn.buf)
			}
			c.CheckInvariants()
		})
		k.Run()
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferHomeNode(t *testing.T) {
	k, c := newTestCache(4, 2, 4, 2, 0)
	k.Spawn("p", 0, func(p *sim.Proc) {
		buf := c.AllocateDemand(3, 7)
		if buf.Home() != 3 {
			t.Errorf("demand home = %d, want 3", buf.Home())
		}
		ev, at := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(buf, ev, at)
		ev.Wait(p)
		c.Unpin(buf)
		pb, res := c.AllocatePrefetch(1, 9)
		if res != PrefetchOK || pb.Home() != 1 {
			t.Errorf("prefetch home = %d (%v), want 1", pb.Home(), res)
		}
		ev2, at2 := fakeFetch(k, sim.Millisecond)
		c.BeginFetch(pb, ev2, at2)
		wb := c.AllocateWrite(2, 20)
		if wb.Home() != 2 {
			t.Errorf("write home = %d, want 2", wb.Home())
		}
		c.Unpin(wb)
	})
	k.Run()
}
