package sim

import "testing"

// BenchmarkScheduleRun measures raw event throughput through the heap.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(k.Now()+Time(i%64), func() {})
		if i%1024 == 1023 {
			k.Run()
		}
	}
	k.Run()
}

// BenchmarkProcSwitch measures the process handoff cost: one Yield per
// iteration, i.e. one park into the kernel plus one resume. (Advance
// would not do: with nothing else queued it takes its fast path and
// never switches.)
func BenchmarkProcSwitch(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	k.Spawn("p", 0, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawn measures creating a process and running it to
// completion: spawn, first step and exit, on kernels of 1024 processes.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	const batch = 1024
	for i := 0; i < b.N; i += batch {
		k := NewKernel()
		for j := i; j < b.N && j < i+batch; j++ {
			k.Spawn("p", 0, func(*Proc) {})
		}
		k.Run()
	}
}

// BenchmarkEventFanout measures firing an event with many waiters.
func BenchmarkEventFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		ev := NewEvent(k)
		for w := 0; w < 32; w++ {
			k.Spawn("w", 0, func(p *Proc) { ev.Wait(p) })
		}
		k.Spawn("f", 0, func(p *Proc) { p.Advance(1); ev.Fire() })
		k.Run()
	}
}

// BenchmarkWheelCascade measures one pop plus one push on a timer
// wheel kept 256 events deep, with horizons spread over levels 1–3 so
// most events reach level 0 only through one or more cascades.
func BenchmarkWheelCascade(b *testing.B) {
	b.ReportAllocs()
	var w timerWheel
	var seq uint64
	horizon := func(i uint64) Time { return Time(64 + (i*7919)%(1<<20)) }
	for ; seq < 256; seq++ {
		w.push(event{at: horizon(seq), seq: seq})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := w.pop()
		w.push(event{at: e.at + horizon(seq), seq: seq})
		seq++
	}
}
