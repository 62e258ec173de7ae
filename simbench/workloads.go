package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/pattern"
)

// A workload turns a seed into the list of engine configurations one
// pass runs, in order. The program under test sees only these configs.
type workload struct {
	name string
	// faultFree workloads must satisfy the disk utilization law.
	faultFree bool
	build     func(seed uint64) []core.Config
}

// workloads is filled at start-up by register. The cluster workloads
// register from their own file, so the paper-suite path builds against
// any commit that has the experiment package, including ones that
// predate core.ScaleConfig.
var workloads = map[string]workload{}

func register(w workload) { workloads[w.name] = w }

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	register(workload{name: "paper-suite", faultFree: true, build: paperSuite})
}

// paperSuite is the paper's full factorial at PaperScale: 46
// (pattern, sync, intensity) cells, each without and with prefetching,
// all on the goroutine engine.
func paperSuite(seed uint64) []core.Config {
	opts := experiment.PaperScale()
	opts.Seed = seed
	var cfgs []core.Config
	for _, c := range experiment.Cells() {
		for _, pf := range []bool{false, true} {
			cfgs = append(cfgs, opts.Config(c.Kind, c.Sync, c.IOBound, pf))
		}
	}
	return cfgs
}

// expectedReads generates each config's reference string once, up
// front, so the output check knows how many reads every run owes.
func expectedReads(cfgs []core.Config) ([]int, error) {
	reads := make([]int, len(cfgs))
	for i := range cfgs {
		pat, err := pattern.Generate(cfgs[i].Pattern)
		if err != nil {
			return nil, fmt.Errorf("generate pattern for run %d: %w", i, err)
		}
		reads[i] = pat.TotalReads()
	}
	return reads, nil
}
