// Command simbench is the repository's end-to-end and per-layer
// benchmark. An invocation runs one workload (or, with -workload all,
// each in turn): it builds the workload's engine configurations from
// -seed, then runs them serially on one goroutine — core.New, then
// (*core.Engine).Run, once per configuration — pass after pass for
// -seconds, checking every run's Result. With -trace=0 it reports the end-to-end metrics, measured
// with no sink attached; with -trace=1 it alternates untraced passes
// with traced ones (an obs.CounterSink on every run, benchmark spans,
// a CPU profile) and reports the per-layer metrics.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	simbench -workload paper-suite|cluster-clean|cluster-chaos|all
//	         [-seed 1] [-seconds 36] [-trace 0|1] [-spans DIR]
//
// -workload all runs the three workloads one after another in this
// process and prefixes every metric with its workload's name.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pattern"
)

// minPasses is the fewest measured passes an invocation reports a
// median over, whatever -seconds says.
const minPasses = 3

// setupRounds is the fewest timings of core.New over the whole
// workload that setup_s takes its median over. Set-up is short and
// noisy next to a run, so after the measured passes the benchmark
// builds (and drops) every engine again until it has this many.
const setupRounds = 21

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	name := fs.String("workload", "paper-suite", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed (the paper's seed is 1)")
	seconds := fs.Float64("seconds", 36, "measure passes until this many seconds have elapsed, per workload")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	spanDir := fs.String("spans", "", "directory the traced passes' spans are written to (empty: not written)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	_, ok := workloads[names[0]]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "simbench: bad arguments (workloads: %s, all)\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	// With -workload all every metric name gets its workload as prefix.
	out := map[string]metric{}
	correct := true
	var attempted, failed int
	for _, n := range names {
		ms, b, err := measure(workloads[n], *seed, *seconds, *traceFlag == 1, *spanDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simbench: %s: %v\n", n, err)
			return 1
		}
		for k, m := range ms {
			if len(names) > 1 {
				k = n + "/" + k
			}
			out[k] = m
		}
		if b.problem != "" {
			fmt.Printf("check failed: %s\n", b.problem)
		}
		fmt.Printf("workload %s seed %d: %d runs, %d failed, failed_frac %g\n",
			n, *seed, b.attempted, b.failed, float64(b.failed)/float64(max(b.attempted, 1)))
		fmt.Printf("result digest %s\n", b.digest)
		correct = correct && b.failed == 0 && b.problem == ""
		attempted += b.attempted
		failed += b.failed
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// measure runs one workload in the requested mode and returns its
// metrics and the bench holding its check verdict.
func measure(w workload, seed uint64, seconds float64, traced bool, spanDir string) (map[string]metric, *bench, error) {
	b := &bench{w: w, cfgs: w.build(seed)}
	reads, err := expectedReads(b.cfgs)
	if err != nil {
		return nil, nil, err
	}
	b.reads = reads
	if !traced {
		return b.endToEnd(seconds), b, nil
	}
	out, err := b.perLayer(seconds)
	if err != nil {
		return nil, nil, err
	}
	if spanDir != "" {
		path, err := b.tr.write(spanDir, w.name, seed)
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(b.tr.spans), path)
	}
	return out, b, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation's state: the workload, the checks' running
// verdict, and (traced passes only) the span recorder.
type bench struct {
	w     workload
	cfgs  []core.Config
	reads []int

	attempted, failed int
	// digest is the SHA-256 of every run's Result JSON in the first
	// pass; every later pass, traced or not, must reproduce it.
	digest  string
	problem string

	tr tracer
}

// pass aggregates one pass over the workload's configurations.
type pass struct {
	setupS, runS, genS float64
	alloc, mallocs     uint64
	gcs                uint32
	heap               int64
	nodes              int
	simTotalS          float64
	hits, accesses     int64 // prefetching runs only
	reads              int64
	counters           obs.Counters
	action, overrun    metrics.Summary
	queue, sync        metrics.Summary
	util               float64
	runs               int
}

// runPass runs every configuration once. traced attaches a counter
// sink and records spans; heap forces a collection around each run to
// measure retained heap (end-to-end passes only, since a forced cycle
// would show up in the traced passes' GC share).
func (b *bench) runPass(traced, heap bool) pass {
	var p pass
	h := sha256.New()
	for i, cfg := range b.cfgs {
		b.attempted++
		var sink *obs.CounterSink
		if traced {
			sink = &obs.CounterSink{}
			cfg.Obs = sink
		}
		run := b.tr.begin(traced)
		st, res, err := b.runOne(cfg, b.reads[i], traced, heap, run)
		if err == nil {
			var ctr *obs.Counters
			if sink != nil {
				c := sink.Snapshot()
				ctr = &c
				p.counters = addCounters(p.counters, c)
			}
			t := time.Now()
			err = check(cfg, res, b.reads[i], b.w.faultFree, ctr)
			if err == nil {
				err = digestResult(h, res)
			}
			b.tr.span(run, "check", t, time.Now())
		}
		b.tr.end(run)
		if err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "simbench: %s run %d (%s): %v\n", b.w.name, i, cfg.Label(), err)
			continue
		}
		p.setupS += st.setup
		p.runS += st.run
		p.genS += st.gen
		p.alloc += st.alloc
		p.mallocs += st.mallocs
		p.gcs += st.gcs
		p.heap += st.heap
		p.nodes += cfg.Procs
		p.simTotalS += res.TotalTime.Seconds()
		p.reads += int64(b.reads[i])
		if cfg.Prefetch {
			c := res.Cache
			p.hits += c.ReadyHits + c.UnreadyHits
			p.accesses += c.Accesses()
		}
		p.action.Merge(res.PrefetchActionTime)
		p.overrun.Merge(res.Overrun)
		p.queue.Merge(res.DiskQueueDelay)
		p.sync.Merge(res.SyncTime)
		p.util += res.DiskUtilization
		p.runs++
	}
	d := hex.EncodeToString(h.Sum(nil))
	switch {
	case b.digest == "":
		b.digest = d
	case d != b.digest && b.problem == "":
		b.problem = fmt.Sprintf("result digest changed between passes: %s then %s", b.digest, d)
	}
	return p
}

type runStats struct {
	setup, run, gen float64
	alloc, mallocs  uint64
	gcs             uint32
	heap            int64
}

// runOne builds and runs one engine, timing core.New and Engine.Run
// and reading the allocator's counters around them. A panic in either
// call is returned as an error: it counts as a failed run.
func (b *bench) runOne(cfg core.Config, reads int, traced, heap bool, run int) (st runStats, res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if traced {
		// Time the reference-string generation that core.New performs
		// internally, by calling it directly.
		t := time.Now()
		pat, err := pattern.Generate(cfg.Pattern)
		st.gen = time.Since(t).Seconds()
		b.tr.span(run, "pattern.Generate", t, time.Now())
		if err != nil {
			return st, nil, fmt.Errorf("pattern.Generate: %w", err)
		}
		if pat.TotalReads() != reads {
			return st, nil, fmt.Errorf("pattern.Generate made %d reads, want %d", pat.TotalReads(), reads)
		}
	}
	if heap {
		fullGC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	eng, err := core.New(cfg)
	t1 := time.Now()
	if err != nil {
		return st, nil, fmt.Errorf("core.New: %w", err)
	}
	res = eng.Run()
	t2 := time.Now()
	runtime.ReadMemStats(&m1)
	b.tr.span(run, "core.New", t0, t1)
	b.tr.span(run, "Engine.Run", t1, t2)
	st.setup = t1.Sub(t0).Seconds()
	st.run = t2.Sub(t1).Seconds()
	st.alloc = m1.TotalAlloc - m0.TotalAlloc
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.gcs = m1.NumGC - m0.NumGC
	if heap {
		// Live heap the run retains while its engine is still
		// reachable: engine state plus the Result.
		fullGC()
		var m2 runtime.MemStats
		runtime.ReadMemStats(&m2)
		st.heap = int64(m2.HeapAlloc) - int64(m0.HeapAlloc)
		runtime.KeepAlive(eng)
	}
	return st, res, nil
}

// fullGC collects twice: objects parked in sync.Pool caches (the JSON
// encoder's buffers, for one) survive the first cycle and would
// otherwise count as live heap.
func fullGC() {
	runtime.GC()
	runtime.GC()
}

func digestResult(h hash.Hash, res *core.Result) error {
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return nil
}

func addCounters(a, b obs.Counters) obs.Counters {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// endToEnd measures untraced passes and reports the end-to-end
// metrics: host times as medians over passes, simulated outputs from
// the first pass (every pass reproduces them, by the digest check).
func (b *bench) endToEnd(seconds float64) map[string]metric {
	b.runPass(false, true) // warm-up, checked but not reported
	var ps []pass
	start := time.Now()
	for len(ps) < minPasses || time.Since(start).Seconds() < seconds {
		ps = append(ps, b.runPass(false, true))
	}
	var setups metrics.Sample
	for _, p := range ps {
		setups.Add(p.setupS)
	}
	for setups.N() < setupRounds {
		setups.Add(b.setupRound())
	}
	med := func(f func(p pass) float64) float64 { return median(ps, f) }
	first := ps[0]
	out := map[string]metric{
		"run_s":               {med(func(p pass) float64 { return p.runS }), "s"},
		"setup_s":             {setups.Median(), "s"},
		"alloc_mb":            {med(func(p pass) float64 { return float64(p.alloc) / 1e6 }), "MB"},
		"heap_bytes_per_node": {med(func(p pass) float64 { return float64(p.heap) / float64(max(p.nodes, 1)) }), "B/node"},
		"sim_total_s":         {first.simTotalS, "sim_s"},
		"hit_ratio":           {ratio(first.hits, first.accesses), "ratio"},
	}
	fmt.Printf("%d measured passes of %d runs; run_s by pass:", len(ps), len(b.cfgs))
	for _, p := range ps {
		fmt.Printf(" %.4f", p.runS)
	}
	fmt.Println()
	printMetrics(out)
	return out
}

// setupRound times core.New on every configuration, from the same
// collected heap a measured run starts from, and drops the engines.
func (b *bench) setupRound() float64 {
	var total float64
	for _, cfg := range b.cfgs {
		fullGC()
		t := time.Now()
		_, err := core.New(cfg)
		total += time.Since(t).Seconds()
		if err != nil && b.problem == "" {
			b.problem = fmt.Sprintf("core.New: %v", err)
		}
	}
	return total
}

// perLayer alternates untraced and traced passes. Counts come from the
// traced passes' counter sinks and must repeat exactly; CPU shares
// come from a profile taken over the traced passes only.
func (b *bench) perLayer(seconds float64) (map[string]metric, error) {
	var shares cpuShares
	var prof bytes.Buffer
	var untraced, traced []pass
	b.runPass(false, false) // warm-up, checked but not reported
	start := time.Now()
	for i := 0; len(traced) < 2 || time.Since(start).Seconds() < seconds; i++ {
		if i%2 == 0 {
			untraced = append(untraced, b.runPass(false, false))
			continue
		}
		prof.Reset()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		p := b.runPass(true, false)
		pprof.StopCPUProfile()
		if err := shares.add(prof.Bytes()); err != nil {
			return nil, err
		}
		if len(traced) > 0 && p.counters != traced[0].counters && b.problem == "" {
			b.problem = "counter totals differ between traced passes"
		}
		traced = append(traced, p)
	}
	runU := median(untraced, func(p pass) float64 { return p.runS })
	runT := median(traced, func(p pass) float64 { return p.runS })
	t := traced[0]
	c := t.counters
	n := float64(max(t.runs, 1))
	out := map[string]metric{
		"sim.events":                  {float64(c[obs.CtrKernelEvents]), "count"},
		"sim.wakes":                   {float64(c[obs.CtrKernelWakes]), "count"},
		"sim.steps":                   {float64(c[obs.CtrKernelSteps]), "count"},
		"sim.ns_per_event":            {runU * 1e9 / float64(max(c[obs.CtrKernelEvents], 1)), "ns"},
		"runtime.sched_share":         {shares.share("runtime.sched"), "fraction"},
		"core.steps_per_read":         {float64(c[obs.CtrKernelSteps]) / float64(max(t.reads, 1)), "steps/read"},
		"runtime.mallocs":             {median(untraced, func(p pass) float64 { return float64(p.mallocs) }), "count"},
		"runtime.gc_cycles":           {median(untraced, func(p pass) float64 { return float64(p.gcs) }), "count"},
		"runtime.gc_share":            {shares.share("runtime.gc"), "fraction"},
		"core.setup_s":                {median(traced, func(p pass) float64 { return p.setupS }), "s"},
		"pattern.generate_s":          {median(traced, func(p pass) float64 { return p.genS }), "s"},
		"cache.ready_hits":            {float64(c[obs.CtrCacheReadyHits]), "count"},
		"cache.unready_hits":          {float64(c[obs.CtrCacheUnreadyHits]), "count"},
		"cache.misses":                {float64(c[obs.CtrCacheMisses]), "count"},
		"cache.prefetches_issued":     {float64(c[obs.CtrCachePrefetchesIssued]), "count"},
		"cache.prefetch_useful_ratio": {ratio(c[obs.CtrCachePrefetchesConsumed], c[obs.CtrCachePrefetchesIssued]), "ratio"},
		"cache.failed_fills":          {float64(c[obs.CtrCacheFailedFills]), "count"},
		"prefetch.actions":            {float64(c[obs.CtrPrefetchActions]), "count"},
		"prefetch.waits":              {float64(c[obs.CtrPrefetchWaits]), "count"},
		"prefetch.throttled":          {float64(c[obs.CtrPrefetchThrottled]), "count"},
		"prefetch.action_ms_mean":     {t.action.Mean(), "sim_ms"},
		"prefetch.overrun_ms_mean":    {t.overrun.Mean(), "sim_ms"},
		"disk.requests":               {float64(c[obs.CtrDiskRequests]), "count"},
		"disk.prefetch_requests":      {float64(c[obs.CtrDiskPrefetchRequests]), "count"},
		"disk.faulted_requests":       {float64(c[obs.CtrDiskFaultedRequests]), "count"},
		"disk.utilization":            {t.util / n, "fraction"},
		"disk.queue_ms_mean":          {t.queue.Mean(), "sim_ms"},
		"barrier.gens":                {float64(c[obs.CtrBarrierGens]), "count"},
		"barrier.sync_ms_mean":        {t.sync.Mean(), "sim_ms"},
		"fault.draws":                 {float64(c[obs.CtrFaultDraws]), "count"},
		"fault.injected":              {float64(c[obs.CtrFaultsInjected]), "count"},
		"fault.read_retries":          {float64(c[obs.CtrReadRetries]), "count"},
		"fault.node_stalls":           {float64(c[obs.CtrNodeStalls]), "count"},
		"obs.trace_overhead_pct":      {100 * (runT - runU) / runU, "%"},
	}
	for _, m := range []string{"sim", "core", "cache", "prefetch", "disk", "barrier", "fault", "metrics"} {
		out[m+".cpu_share"] = metric{shares.share(m), "fraction"}
	}
	fmt.Printf("%d untraced + %d traced passes of %d runs; %d profile samples\n",
		len(untraced), len(traced), len(b.cfgs), shares.total)
	printMetrics(out)
	return out, nil
}

func median(ps []pass, f func(p pass) float64) float64 {
	var s metrics.Sample
	for _, p := range ps {
		s.Add(f(p))
	}
	return s.Median()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
