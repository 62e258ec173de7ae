package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into the program. All
// spans of one engine run share Run; the run's root span ("run") is
// the parent of its pattern.Generate, core.New, Engine.Run and check
// spans. Times are nanoseconds since the tracer's first span.
type span struct {
	Run     int    `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the benchmark
// ends. It records only runs begun with traced set.
type tracer struct {
	spans []span
	base  time.Time
	runs  int
	ids   int
	root  span // the open run's root, recorded by end
}

// begin opens a run and returns its id, or 0 when the run is untraced.
func (t *tracer) begin(traced bool) int {
	if !traced {
		return 0
	}
	if t.base.IsZero() {
		t.base = time.Now()
	}
	t.runs++
	t.ids++
	t.root = span{Run: t.runs, ID: t.ids, Name: "run", StartNS: t.since(time.Now())}
	return t.runs
}

// span records one child span of the open run (a no-op for run 0).
func (t *tracer) span(run int, name string, start, end time.Time) {
	if run == 0 {
		return
	}
	t.ids++
	t.spans = append(t.spans, span{
		Run: run, ID: t.ids, Parent: t.root.ID, Name: name,
		StartNS: t.since(start), EndNS: t.since(end),
	})
}

// end closes run by recording its root span.
func (t *tracer) end(run int) {
	if run == 0 {
		return
	}
	t.root.EndNS = t.since(time.Now())
	t.spans = append(t.spans, t.root)
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// write saves the spans as JSON lines to dir and returns the path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
