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

// TestWheelMatchesHeapRandomStreams is the ordering property test: on
// random interleaved push/peek/pop streams — including far-future
// (overflow) times, duplicate instants, and pushes behind a peeked
// (already collected) instant, as the kernel's Advance fast path makes
// — the wheel pops the exact sequence the reference binary heap does.
// Seqs increase monotonically, as the kernel assigns them.
func TestWheelMatchesHeapRandomStreams(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var w timerWheel
		var h eventHeap
		var now Time
		seq := uint64(0)
		ops := 300 + rng.Intn(700)
		for i := 0; i < ops; i++ {
			switch r := rng.Intn(10); {
			case r < 5: // push at a random horizon
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
			case r < 7: // peek (collects ahead of now), like Advance
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
		}
		drainCompare(t, "trial drain", &w, &h)
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
