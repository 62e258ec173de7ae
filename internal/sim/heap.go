package sim

// eventKind discriminates the typed event record. The kernel's hottest
// occurrences — process resumptions and completion timers — carry a
// pointer in the record instead of a heap-allocated closure, so
// scheduling them allocates nothing beyond amortised slice growth.
type eventKind uint8

const (
	evFunc eventKind = iota // run fn: general Schedule/After callbacks
	evStep                  // resume proc: the blocking Proc API
	evWake                  // call w.Wake(): typed continuation timers
)

// event is a scheduled occurrence. Events with equal times fire in the
// order they were scheduled (seq breaks ties), which keeps the kernel
// fully deterministic. Records live by value in the timer wheel's
// storage — its node slab, its due-event front buffer and its overflow
// heap's slice, all reused in place as events come and go — so in
// steady state pushing and popping moves no memory through the garbage
// collector.
type event struct {
	at   Time
	seq  uint64
	kind eventKind
	proc *Proc
	w    Waiter
	fn   func()
}

// eventHeap is a binary min-heap ordered by (at, seq). It is hand-rolled
// rather than using container/heap to avoid interface boxing on the
// hottest path in the simulator.
type eventHeap struct {
	items []event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = event{} // release proc/w/fn references
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && h.less(right, left) {
			smallest = right
		}
		if !h.less(smallest, i) {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// peekTime reports the time of the earliest event. It must not be called
// on an empty heap.
func (h *eventHeap) peekTime() Time { return h.items[0].at }
