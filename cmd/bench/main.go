// Command bench runs the repository's figure benchmarks and records the
// results as a JSON perf baseline, so the performance trajectory of the
// simulator is tracked in-repo rather than lost in CI logs.
//
// Each benchmark runs in its own `go test` process by default: the
// suite-backed figure benchmarks share a lazily computed suite within
// one process (deliberately, so `go test -bench=.` doubles as a cheap
// reproduction table), which would misattribute the whole suite's cost
// to whichever benchmark runs first. Isolation charges every figure its
// true cost.
//
// Examples:
//
//	bench                          # all figure benchmarks -> BENCH_<date>.json
//	bench -bench 'Fig08|Fig12'     # just the named figures
//	bench -benchtime 3x -o out.json
//	bench -shared                  # single process, shared caches (fast smoke)
//	bench -pkg .,./internal/sim -bench 'SingleRun|Wheel'  # several packages, one file
//	bench -bench SingleRun -benchtime 2s -count 5  # median, min and max of 5 runs
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
)

// Result is one benchmark's measurement. With -count N > 1 every
// number is the median over the N runs, and the spread fields record
// median, min and max of the three standard per-op figures.
type Result struct {
	Package     string             `json:"package,omitempty"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	Runs              int     `json:"runs,omitempty"`
	NsPerOpSpread     *Spread `json:"ns_per_op_spread,omitempty"`
	BytesPerOpSpread  *Spread `json:"bytes_per_op_spread,omitempty"`
	AllocsPerOpSpread *Spread `json:"allocs_per_op_spread,omitempty"`
}

// Spread summarises one figure over repeated runs of a benchmark.
type Spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Baseline is the file format of BENCH_<date>.json.
type Baseline struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Label      string   `json:"label,omitempty"`
	Benchtime  string   `json:"benchtime"`
	Count      int      `json:"count,omitempty"`
	Isolated   bool     `json:"isolated"`
	Package    string   `json:"package"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	var (
		pkg       = flag.String("pkg", ".", "comma-separated packages containing the benchmarks")
		benchRE   = flag.String("bench", ".", "regexp selecting benchmarks to run")
		benchtime = flag.String("benchtime", "1x", "benchtime passed to go test")
		count     = flag.Int("count", 1, "runs per benchmark; > 1 records median, min and max")
		out       = flag.String("o", "", "output file (default BENCH_<date>.json)")
		label     = flag.String("label", "", "free-form label recorded in the baseline")
		shared    = flag.Bool("shared", false, "run all benchmarks in one process (shared lazy caches)")
		dir       = flag.String("C", ".", "directory to run go test from (module root)")
		cpuProf   = flag.String("cpuprofile", "", "write CPU profiles: <path> shared, <path>.<Benchmark> isolated")
		memProf   = flag.String("memprofile", "", "write heap profiles: <path> shared, <path>.<Benchmark> isolated")
	)
	flag.Parse()

	if *count < 1 {
		fatal(fmt.Errorf("-count must be at least 1"))
	}
	pkgs := strings.Split(*pkg, ",")
	if len(pkgs) > 1 && (*cpuProf != "" || *memProf != "") {
		// As with go test itself: profile files are named per
		// benchmark, not per package.
		fatal(fmt.Errorf("-cpuprofile/-memprofile need a single -pkg"))
	}
	// Results keep -pkg order, sorted by name within each package.
	var results []Result
	for _, p := range pkgs {
		rs, err := benchPackage(*dir, p, *benchRE, *benchtime, *count, *shared, *cpuProf, *memProf)
		if err != nil {
			fatal(err)
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
		results = append(results, rs...)
	}

	date := time.Now().Format("2006-01-02")
	b := Baseline{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Label:      *label,
		Benchtime:  *benchtime,
		Count:      *count,
		Isolated:   !*shared,
		Package:    *pkg,
		Benchmarks: results,
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("bench: %d benchmarks -> %s\n", len(results), path)
}

// benchPackage runs the benchmarks of one package matching re, all in
// one process when shared, else one process each.
func benchPackage(dir, pkg, re, benchtime string, count int, shared bool, cpuProf, memProf string) ([]Result, error) {
	names, err := listBenchmarks(dir, pkg, re)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no benchmarks match %q in %s", re, pkg)
	}
	var results []Result
	if shared {
		results, err = runBench(dir, pkg, re, benchtime, count, cpuProf, memProf)
		if err != nil {
			return nil, err
		}
	} else {
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "bench: %s %s\n", pkg, name)
			// One process per benchmark, so each gets its own profile file.
			rs, err := runBench(dir, pkg, "^"+name+"$", benchtime, count,
				suffixProfile(cpuProf, name), suffixProfile(memProf, name))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			results = append(results, rs...)
		}
	}
	for i := range results {
		results[i].Package = pkg
	}
	return results, nil
}

// listBenchmarks asks `go test -list` for the benchmark names matching
// the regexp, without running anything.
func listBenchmarks(dir, pkg, re string) ([]string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-list", re, pkg)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test -list: %v\n%s", err, out)
	}
	var names []string
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Benchmark") {
			names = append(names, line)
		}
	}
	sort.Strings(names)
	return names, nil
}

// suffixProfile appends the benchmark name to a profile path, keeping
// per-benchmark profiles apart under the isolated (one process per
// benchmark) mode. Empty stays empty.
func suffixProfile(path, bench string) string {
	if path == "" {
		return ""
	}
	return path + "." + bench
}

// runBench executes one `go test -bench` invocation, parses every
// result line it prints and folds the count runs of each benchmark into
// one Result.
func runBench(dir, pkg, re, benchtime string, count int, cpuProf, memProf string) ([]Result, error) {
	args := []string{"test", "-run", "^$",
		"-bench", re, "-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem"}
	if cpuProf != "" {
		args = append(args, "-cpuprofile", cpuProf)
	}
	if memProf != "" {
		args = append(args, "-memprofile", memProf)
	}
	cmd := exec.Command("go", append(args, pkg)...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %v\n%s", err, buf.String())
	}
	var results []Result
	for _, line := range strings.Split(buf.String(), "\n") {
		if r, ok := parseBenchLine(line); ok {
			results = append(results, r)
		}
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results in output:\n%s", buf.String())
	}
	return aggregate(results), nil
}

// aggregate folds repeated runs of the same benchmark into one Result
// per name, in order of first appearance. A benchmark seen once is
// returned as is; one seen N > 1 times gets the median of every figure
// plus the spread of ns/op, B/op and allocs/op.
func aggregate(runs []Result) []Result {
	var order []string
	byName := map[string][]Result{}
	for _, r := range runs {
		if _, seen := byName[r.Name]; !seen {
			order = append(order, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		rs := byName[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		var iters, ns, bytes, allocs metrics.Sample
		units := map[string]*metrics.Sample{}
		for _, r := range rs {
			iters.Add(float64(r.Iterations))
			ns.Add(r.NsPerOp)
			bytes.Add(r.BytesPerOp)
			allocs.Add(r.AllocsPerOp)
			for unit, v := range r.Metrics {
				if units[unit] == nil {
					units[unit] = &metrics.Sample{}
				}
				units[unit].Add(v)
			}
		}
		agg := Result{
			Name:              name,
			Iterations:        int64(iters.Median()),
			NsPerOp:           ns.Median(),
			BytesPerOp:        bytes.Median(),
			AllocsPerOp:       allocs.Median(),
			Runs:              len(rs),
			NsPerOpSpread:     spread(&ns),
			BytesPerOpSpread:  spread(&bytes),
			AllocsPerOpSpread: spread(&allocs),
		}
		for unit, s := range units {
			if agg.Metrics == nil {
				agg.Metrics = map[string]float64{}
			}
			agg.Metrics[unit] = s.Median()
		}
		out = append(out, agg)
	}
	return out
}

// spread records the median, min and max of s.
func spread(s *metrics.Sample) *Spread {
	return &Spread{Median: s.Median(), Min: s.Min(), Max: s.Max()}
}

var (
	benchLineRE  = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)
	procSuffixRE = regexp.MustCompile(`-\d+$`)
)

// parseBenchLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkFig08TotalTime  1  123456 ns/op  4.2 some-metric  12 B/op  3 allocs/op
//
// into a Result. Reports ok=false for non-result lines.
func parseBenchLine(line string) (Result, bool) {
	m := benchLineRE.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: procSuffixRE.ReplaceAllString(m[1], ""), Iterations: iters, Metrics: map[string]float64{}}
	fields := strings.Fields(m[3])
	if len(fields)%2 != 0 {
		return Result{}, false
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		default:
			r.Metrics[unit] = v
		}
	}
	if len(r.Metrics) == 0 {
		r.Metrics = nil
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
