package sim

import (
	"math/rand"
	"testing"
)

// drainCompare pops both queues dry and asserts identical (at, seq)
// order. The event payloads carry no pointers here, so order is the
// whole contract.
func drainCompare(t *testing.T, tag string, w *timerWheel, h *eventHeap) {
	t.Helper()
	for h.len() > 0 {
		if w.len() != h.len() {
			t.Fatalf("%s: wheel len %d, heap len %d", tag, w.len(), h.len())
		}
		if wp, hp := w.peekTime(), h.peekTime(); wp != hp {
			t.Fatalf("%s: peekTime wheel %v heap %v", tag, wp, hp)
		}
		we, he := w.pop(), h.pop()
		if we.at != he.at || we.seq != he.seq {
			t.Fatalf("%s: wheel popped (%v,%d), heap popped (%v,%d)",
				tag, we.at, we.seq, he.at, he.seq)
		}
	}
	if w.len() != 0 {
		t.Fatalf("%s: wheel retains %d events after heap drained", tag, w.len())
	}
}

// checkSlab verifies the slab's structure: every node sits on exactly
// one list — a slot's or the free list — every slot list ends at its
// tail, occupancy bits match non-empty slots, and the queued count adds
// up to len().
func checkSlab(t *testing.T, tag string, w *timerWheel) {
	t.Helper()
	seen := make([]bool, len(w.nodes))
	walk := func(head int32, what string) (count int, last int32) {
		for n := head; n != 0; n = w.nodes[n-1].next {
			if n < 0 || int(n) > len(w.nodes) || seen[n-1] {
				t.Fatalf("%s: %s reaches node %d twice or out of range (slab %d)", tag, what, n, len(w.nodes))
			}
			seen[n-1] = true
			count++
			last = n
		}
		return count, last
	}
	resident := 0
	for l := range w.slots {
		for s, sl := range w.slots[l] {
			c, last := walk(sl.head, "slot list")
			if occupied := w.occ[l]&(1<<uint(s)) != 0; occupied != (c > 0) {
				t.Fatalf("%s: slot %d/%d holds %d, occupancy bit %v", tag, l, s, c, occupied)
			}
			if last != sl.tail && c > 0 {
				t.Fatalf("%s: slot %d/%d ends at node %d, tail %d", tag, l, s, last, sl.tail)
			}
			resident += c
		}
	}
	free, _ := walk(w.free, "free list")
	if resident+free != len(w.nodes) {
		t.Fatalf("%s: %d resident + %d free != slab %d (leaked nodes)", tag, resident, free, len(w.nodes))
	}
	if got := resident + len(w.front) - w.fi + w.overflow.len(); got != w.len() {
		t.Fatalf("%s: %d queued, len() %d", tag, got, w.len())
	}
}

// TestWheelMatchesHeapRandomStreams is the ordering property test: on
// random interleaved push/peek/pop streams — including far-future
// (overflow) times, duplicate instants, bursts, and pushes behind a
// peeked (already collected) instant, as the kernel's Advance fast path
// makes — the wheel pops the exact sequence the reference binary heap
// does. Seqs increase monotonically, as the kernel assigns them. One
// wheel carries on across all trials (each drains it below the slab's
// release threshold), so free-list reuse interleaves with cascades and
// overflow migration throughout; checkSlab audits the slab as it goes.
func TestWheelMatchesHeapRandomStreams(t *testing.T) {
	t.Parallel()
	var w timerWheel
	var now Time
	seq := uint64(0)
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var h eventHeap
		push := func() {
			var d Time
			switch rng.Intn(4) {
			case 0:
				d = Time(rng.Intn(64)) // level 0
			case 1:
				d = Time(rng.Intn(1 << 12)) // level 1
			case 2:
				d = Time(rng.Intn(1 << 20)) // level 2-3
			case 3:
				d = wheelSpan + Time(rng.Intn(1<<26)) // overflow
			}
			e := event{at: now + d, seq: seq}
			seq++
			w.push(e)
			h.push(e)
		}
		ops := 300 + rng.Intn(700)
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(20); {
			case r < 9: // push at a random horizon
				push()
			case r < 10: // burst: many pushes between pops
				for j := rng.Intn(64); j >= 0; j-- {
					push()
				}
			case r < 13: // peek (collects ahead of now), like Advance
				if h.len() == 0 {
					continue
				}
				if wp, hp := w.peekTime(), h.peekTime(); wp != hp {
					t.Fatalf("trial %d: peekTime wheel %v heap %v", trial, wp, hp)
				}
			default: // pop (advances time, like the kernel loop)
				if h.len() == 0 {
					continue
				}
				if wp, hp := w.peekTime(), h.peekTime(); wp != hp {
					t.Fatalf("trial %d: peekTime wheel %v heap %v", trial, wp, hp)
				}
				we, he := w.pop(), h.pop()
				if we.at != he.at || we.seq != he.seq {
					t.Fatalf("trial %d: wheel popped (%v,%d), heap popped (%v,%d)",
						trial, we.at, we.seq, he.at, he.seq)
				}
				if we.at > now {
					now = we.at
				}
			}
			if i%50 == 0 {
				checkSlab(t, "mid-trial", &w)
			}
		}
		// Drain, then carry the clock past the last event into the next
		// trial, as the kernel's would be.
		for _, e := range h.items {
			now = max(now, e.at)
		}
		drainCompare(t, "trial drain", &w, &h)
		checkSlab(t, "drained", &w)
	}
	if len(w.nodes) == 0 {
		t.Fatal("slab released: trials never exercised free-list reuse across drains")
	}
}

// TestWheelPastPush exercises the front-buffer path: after the wheel
// has collected (and wheelTime advanced past t), a push at or before t
// must still pop in (at, seq) order — the Advance fast path peeks
// before it moves the clock, so the kernel does this routinely.
func TestWheelPastPush(t *testing.T) {
	t.Parallel()
	var w timerWheel
	var h eventHeap
	push := func(at Time, seq uint64) {
		w.push(event{at: at, seq: seq})
		h.push(event{at: at, seq: seq})
	}
	push(100, 1)
	push(200, 2)
	if got := w.peekTime(); got != 100 { // collects; wheelTime passes 100
		t.Fatalf("peekTime = %v", got)
	}
	push(50, 3)  // before the collected batch
	push(100, 4) // same instant as batch head, newer seq
	push(150, 5) // between batch head and the rest of the wheel
	drainCompare(t, "past-push", &w, &h)
}

// TestWheelCascadeInterleave pins why collect sorts a level-0 slot by
// seq even though seqs are pushed in increasing order: (100,1) is filed
// in level 1 while wheelTime is 0; after (63,0) pops, wheelTime is 64
// and (100,2) lands directly in level-0 slot 36. Cascading level 1 then
// appends (100,1) to that slot behind (100,2).
func TestWheelCascadeInterleave(t *testing.T) {
	t.Parallel()
	var w timerWheel
	w.push(event{at: 63, seq: 0})
	w.push(event{at: 100, seq: 1})
	if e := w.pop(); e.at != 63 || e.seq != 0 {
		t.Fatalf("first pop = (%v,%d), want (63,0)", e.at, e.seq)
	}
	w.push(event{at: 100, seq: 2})
	for _, want := range []uint64{1, 2} {
		if e := w.pop(); e.at != 100 || e.seq != want {
			t.Fatalf("popped (%v,%d), want (100,%d)", e.at, e.seq, want)
		}
	}
}

// TestWheelCascade drives events far enough apart that every level and
// the overflow heap participate, with bursts at shared instants to
// check per-slot seq ordering across cascades.
func TestWheelCascade(t *testing.T) {
	t.Parallel()
	var w timerWheel
	var h eventHeap
	seq := uint64(0)
	for _, base := range []Time{0, 63, 64, 1 << 12, 1 << 18, wheelSpan - 1, wheelSpan, 3 * wheelSpan} {
		for j := 0; j < 5; j++ {
			e := event{at: base + Time(j%2), seq: seq}
			seq++
			w.push(e)
			h.push(e)
		}
	}
	drainCompare(t, "cascade", &w, &h)
}

// TestWheelSteadyStateAllocFree pins the slab's reuse: once warm, a
// cycle of pushes across every level and the overflow heap, popped
// back out through cascades and overflow migration, allocates nothing.
// A long-lived sentinel keeps the wheel from ever draining, so reuse
// comes from the free list rather than from shrink's keep threshold.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	var w timerWheel
	var now Time
	seq := uint64(0)
	w.push(event{at: 1 << 62, seq: seq}) // sentinel, far past every cycle
	seq++
	horizons := []Time{0, 1, 63, 100, 5000, 1 << 14, 1 << 19, 1 << 23, wheelSpan + 7}
	cycle := func() {
		for _, d := range horizons {
			for j := 0; j < 3; j++ {
				w.push(event{at: now + d, seq: seq})
				seq++
			}
		}
		for range 3 * len(horizons) {
			now = w.pop().at
		}
	}
	for range 4 {
		cycle() // warm up: grow the slab, front and overflow arrays
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("%v allocs per push/pop cycle, want 0", got)
	}
	if w.len() != 1 {
		t.Fatalf("wheel holds %d events, want the sentinel only", w.len())
	}
	checkSlab(t, "steady state", &w)
}

// TestWheelBurstReleasesSlab pins shrink: after a burst larger than the
// keep threshold drains, the wheel holds no slab, overflow or large
// front array, so a cold-start burst (a cluster run schedules one wake
// per node at t=0) does not stay resident for the rest of the run.
//
// The slab is also why the wheel keeps no per-slot arrays. Keeping each
// emptied slot's array for reuse (slot[:0]) instead was measured on the
// paper-scale benchmark workload: it cut allocation per pass from 163 to
// 66 MB but raised the live heap left after the runs from 3626 to 8652
// B/node, because all 256 slots then held their high-water arrays.
func TestWheelBurstReleasesSlab(t *testing.T) {
	var w timerWheel
	const inWheel, inOverflow = 12000, 5000
	seq := uint64(0)
	for i := 0; i < inWheel; i++ {
		w.push(event{at: 64 + Time(i%4000)*37, seq: seq}) // levels 1–3
		seq++
	}
	for i := 0; i < inOverflow; i++ {
		w.push(event{at: wheelSpan + Time(i)*wheelSpan/7, seq: seq})
		seq++
	}
	if len(w.nodes) != inWheel || w.overflow.len() != inOverflow {
		t.Fatalf("burst filed %d slab nodes and %d overflow events", len(w.nodes), w.overflow.len())
	}
	var last Time
	for w.len() > 0 {
		e := w.pop()
		if e.at < last {
			t.Fatalf("popped %v after %v", e.at, last)
		}
		last = e.at
	}
	if w.nodes != nil || w.free != 0 {
		t.Fatalf("drained wheel retains a %d-node slab (free head %d)", cap(w.nodes), w.free)
	}
	if w.overflow.items != nil || cap(w.front) > 4096 {
		t.Fatalf("drained wheel retains overflow cap %d, front cap %d", cap(w.overflow.items), cap(w.front))
	}
	w.push(event{at: last + 100, seq: seq}) // still usable after release
	if e := w.pop(); e.at != last+100 || w.len() != 0 {
		t.Fatalf("post-release pop = (%v,%d), len %d", e.at, e.seq, w.len())
	}
}
