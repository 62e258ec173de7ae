package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
)

// TestRUSetSteadyStateAllocFree pins the RU set's in-place rotation:
// once its array exists, a makeRoom/add cycle per read allocates
// nothing. Sliding the slice base forward instead would make every add
// regrow the array — one allocation per read.
func TestRUSetSteadyStateAllocFree(t *testing.T) {
	for _, size := range []int{1, 3} {
		c := cache.New(sim.NewKernel(), cache.Options{DemandFrames: 8, Nodes: 1})
		// Fetching buffers stay pinned once by their allocation, so the
		// set's pins and unpins never move them onto the reusable list.
		var bufs []*cache.Buffer
		for b := 0; b < size+2; b++ {
			bufs = append(bufs, c.AllocateDemand(0, b))
		}
		ru := newRUSet(size)
		i := 0
		read := func() {
			ru.makeRoom(c)
			buf := bufs[i%len(bufs)]
			c.Pin(0, buf)
			ru.add(buf)
			i++
		}
		for j := 0; j < len(bufs); j++ {
			read() // warm up: fill the set
		}
		if got := testing.AllocsPerRun(100, read); got != 0 {
			t.Errorf("size %d: %v allocs per read, want 0", size, got)
		}
		if ru.len() != size {
			t.Errorf("size %d: set holds %d", size, ru.len())
		}
		ru.drain(c)
	}
}
