package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/pattern"
)

func TestWorkloadsBuildValidConfigs(t *testing.T) {
	want := map[string]int{"paper-suite": 92, "cluster-clean": 1, "cluster-chaos": 1}
	for name, n := range want {
		cfgs := workloads[name].build(7)
		if len(cfgs) != n {
			t.Fatalf("%s: %d configs, want %d", name, len(cfgs), n)
		}
		for i := range cfgs {
			if err := cfgs[i].Validate(); err != nil {
				t.Fatalf("%s config %d: %v", name, i, err)
			}
		}
	}
}

func smallRun(t *testing.T) (core.Config, *core.Result, int, obs.Counters) {
	t.Helper()
	cfg := experiment.TestScale().Config(pattern.GW, barrier.EveryNPerProc, false, true)
	sink := &obs.CounterSink{}
	cfg.Obs = sink
	reads, err := expectedReads([]core.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res, reads[0], sink.Snapshot()
}

func TestCheckAcceptsRunAndRejectsTampering(t *testing.T) {
	cfg, res, reads, ctr := smallRun(t)
	if err := check(cfg, res, reads, true, &ctr); err != nil {
		t.Fatalf("untampered run rejected: %v", err)
	}
	for name, tamper := range map[string]func(r *core.Result, c *obs.Counters){
		"lost read":   func(r *core.Result, _ *obs.Counters) { r.Cache.Misses-- },
		"busy disks":  func(r *core.Result, _ *obs.Counters) { r.DiskUtilization *= 1.01 },
		"sink drifts": func(_ *core.Result, c *obs.Counters) { c[obs.CtrCacheReadyHits]++ },
	} {
		r, c := *res, ctr
		tamper(&r, &c)
		if err := check(cfg, &r, reads, true, &c); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

func TestCPUSharesChargeSimulatorModules(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		smallRun(t)
	}
	pprof.StopCPUProfile()
	var s cpuShares
	if err := s.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.total == 0 {
		t.Skip("no profile samples collected")
	}
	var sum int64
	for _, n := range s.samples {
		sum += n
	}
	if sum != s.total {
		t.Fatalf("buckets hold %d samples, total %d", sum, s.total)
	}
	if s.samples["sim"] == 0 {
		t.Fatalf("no samples charged to sim: %v", s.samples)
	}
}

func TestClassify(t *testing.T) {
	stacks := map[string][]string{ // leaf first
		"bench":         {"encoding/json.(*encodeState).marshal", reproPrefix + "metrics.(*Summary).MarshalJSON", "main.digestResult"},
		"cache":         {"runtime.mallocgc", reproPrefix + "cache.(*Cache).get", reproPrefix + "core.New", "main.(*bench).runOne"},
		"sim":           {reproPrefix + "sim.(*Kernel).step", reproPrefix + "core.(*Engine).procBody", "runtime.goexit"},
		"runtime.gc":    {"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		"runtime.sched": {"runtime.futex", "runtime.schedule", "runtime.mcall"},
	}
	p := &profile{locFuncs: map[uint64][]string{}}
	for want, frames := range stacks {
		locs := make([]uint64, len(frames))
		for i, fn := range frames {
			id := uint64(len(p.locFuncs) + 1)
			p.locFuncs[id] = []string{fn}
			locs[i] = id
		}
		if got := p.classify(locs); got != want {
			t.Errorf("%v: classified %q, want %q", frames, got, want)
		}
	}
}
