package core

import "repro/internal/cache"

// ruSet is a processor's recently-used set: the FIFO of buffers the
// process currently has pinned. The paper uses size one, a variation of
// toss-immediately — the block a process just finished with is released
// as soon as it moves on to the next — while larger sizes are available
// for the RU-set-size ablation.
type ruSet struct {
	size int
	bufs []*cache.Buffer
}

func newRUSet(size int) *ruSet {
	if size <= 0 {
		panic("core: RU set size must be positive")
	}
	return &ruSet{size: size}
}

// makeRoom unpins the oldest entries until there is room for one more,
// so it is called before acquiring a new buffer. The survivors move
// down in place (the set is small), so bufs keeps its array and add
// never regrows it.
func (r *ruSet) makeRoom(c *cache.Cache) {
	for len(r.bufs) >= r.size {
		c.Unpin(r.bufs[0])
		n := copy(r.bufs, r.bufs[1:])
		r.bufs[n] = nil
		r.bufs = r.bufs[:n]
	}
}

// add records a newly pinned buffer.
func (r *ruSet) add(buf *cache.Buffer) {
	r.bufs = append(r.bufs, buf)
}

// drain unpins everything; called when the process finishes.
func (r *ruSet) drain(c *cache.Cache) {
	for _, b := range r.bufs {
		c.Unpin(b)
	}
	r.bufs = nil
}

// len reports the current occupancy.
func (r *ruSet) len() int { return len(r.bufs) }
