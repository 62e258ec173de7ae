package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/metrics"
)

func TestParseBenchLine(t *testing.T) {
	line := "BenchmarkFig08TotalTime-8   \t       1\t1234567890 ns/op\t        48.25 median-exec-reduction-%\t  676247 B/op\t   22779 allocs/op"
	r, ok := parseBenchLine(line)
	if !ok {
		t.Fatal("line not recognized")
	}
	if r.Name != "BenchmarkFig08TotalTime" {
		t.Fatalf("name = %q", r.Name)
	}
	if r.Iterations != 1 {
		t.Fatalf("iterations = %d", r.Iterations)
	}
	if r.NsPerOp != 1234567890 {
		t.Fatalf("ns/op = %v", r.NsPerOp)
	}
	if r.BytesPerOp != 676247 || r.AllocsPerOp != 22779 {
		t.Fatalf("mem = %v B/op %v allocs/op", r.BytesPerOp, r.AllocsPerOp)
	}
	if r.Metrics["median-exec-reduction-%"] != 48.25 {
		t.Fatalf("metrics = %v", r.Metrics)
	}
}

func TestParseBenchLineNoSuffix(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkSingleRun \t     710\t   8470214 ns/op")
	if !ok || r.Name != "BenchmarkSingleRun" || r.Iterations != 710 || r.NsPerOp != 8470214 {
		t.Fatalf("parse = %+v ok=%v", r, ok)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"pkg: repro",
		"PASS",
		"ok  \trepro\t7.007s",
		"BenchmarkBroken  not-a-number ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Fatalf("noise line parsed as result: %q", line)
		}
	}
}

// TestAggregateCount folds -count runs: every figure becomes the
// median, the spread records min and max, and a benchmark seen once
// passes through untouched.
func TestAggregateCount(t *testing.T) {
	var runs []Result
	for _, line := range []string{
		"BenchmarkSingleRun-2  120  9400000 ns/op  7.5 ms/run  500000 B/op  2349 allocs/op",
		"BenchmarkProcSwitch-2  4000000  250 ns/op  0 B/op  0 allocs/op",
		"BenchmarkSingleRun-2  100  9900000 ns/op  8.5 ms/run  510000 B/op  2351 allocs/op",
		"BenchmarkSingleRun-2  140  9100000 ns/op  6.5 ms/run  490000 B/op  2349 allocs/op",
	} {
		r, ok := parseBenchLine(line)
		if !ok {
			t.Fatalf("line not recognized: %q", line)
		}
		runs = append(runs, r)
	}
	got := aggregate(runs)
	if len(got) != 2 || got[0].Name != "BenchmarkSingleRun" || got[1].Name != "BenchmarkProcSwitch" {
		t.Fatalf("aggregate = %+v, want SingleRun then ProcSwitch", got)
	}
	sr := got[0]
	if sr.Runs != 3 || sr.Iterations != 120 || sr.NsPerOp != 9400000 ||
		sr.BytesPerOp != 500000 || sr.AllocsPerOp != 2349 || sr.Metrics["ms/run"] != 7.5 {
		t.Errorf("medians = %+v", sr)
	}
	if *sr.NsPerOpSpread != (Spread{Median: 9400000, Min: 9100000, Max: 9900000}) {
		t.Errorf("ns/op spread = %+v", *sr.NsPerOpSpread)
	}
	if *sr.BytesPerOpSpread != (Spread{Median: 500000, Min: 490000, Max: 510000}) {
		t.Errorf("B/op spread = %+v", *sr.BytesPerOpSpread)
	}
	if *sr.AllocsPerOpSpread != (Spread{Median: 2349, Min: 2349, Max: 2351}) {
		t.Errorf("allocs/op spread = %+v", *sr.AllocsPerOpSpread)
	}
	if ps := got[1]; ps.Runs != 0 || ps.NsPerOpSpread != nil || ps.NsPerOp != 250 {
		t.Errorf("single run was altered: %+v", ps)
	}
}

func TestSpreadEvenCount(t *testing.T) {
	var s metrics.Sample
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	if got := *spread(&s); got != (Spread{Median: 2.5, Min: 1, Max: 4}) {
		t.Fatalf("spread = %+v", got)
	}
}

// TestOldBaselineStillParses: the -count fields are append-only, so a
// BENCH file written before them decodes with no unknown fields and
// round-trips to the same bytes.
func TestOldBaselineStillParses(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_2026-10-17_wheel_post.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Baseline
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("old baseline does not decode: %v", err)
	}
	if len(b.Benchmarks) == 0 || b.Count != 0 || b.Benchmarks[0].NsPerOpSpread != nil {
		t.Fatalf("decoded %+v", b)
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(out, '\n'), data) {
		t.Errorf("old baseline does not round-trip:\n%s", out)
	}
}
