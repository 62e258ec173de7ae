package core

import (
	"encoding/json"
	"testing"

	"repro/internal/barrier"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/interleave"
	"repro/internal/pattern"
	"repro/internal/predict"
	"repro/internal/sim"
)

// resultJSON runs cfg and renders the entire Result — every statistic,
// histogram, counter, and per-proc record — as JSON.
func resultJSON(t *testing.T, cfg Config) string {
	t.Helper()
	r := MustRun(cfg)
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestRepeatDeterminism pins the goroutine engine's determinism
// contract on the complete Result — virtual end time, every summary
// statistic, the read-time histogram, cache and fault counters, and
// per-processor records — which must be identical on a repeat run.
// The scenarios cross the dimensions that load the disks differently:
// prefetching (deep disk queues), barriers (bursty arrivals), disk
// faults with retries, a disk kill, node faults with a processor kill
// and quorum release, and reordering disk schedulers with seeks.
func TestRepeatDeterminism(t *testing.T) {
	t.Parallel()
	scenarios := []struct {
		name   string
		mutate func(*Config)
	}{
		{"gw_prefetch", func(c *Config) {
			c.Prefetch = true
		}},
		{"lw_barrier", func(c *Config) {
			c.Sync = barrier.EveryNPerProc
			c.SyncEveryPerProc = 5
		}},
		{"lrp_disk_faults", func(c *Config) {
			c.Prefetch = true
			c.Fault = fault.Config{
				Seed:            5,
				ReadErrorRate:   0.08,
				SpikeRate:       0.1,
				SpikeMultiplier: 3,
				StuckRate:       0.03,
				Timeout:         200 * sim.Millisecond,
			}
		}},
		{"disk_kill_degraded", func(c *Config) {
			c.Prefetch = true
			c.Fault = fault.Config{
				Seed:     9,
				KillAt:   400 * sim.Millisecond,
				KillDisk: 1,
			}
		}},
		{"node_kill_quorum_audited", func(c *Config) {
			c.Sync = barrier.EveryNPerProc
			c.SyncEveryPerProc = 5
			c.AuditEvery = 5 * sim.Millisecond
			c.NodeFault = fault.NodeConfig{
				Seed:           3,
				KillAt:         300 * sim.Millisecond,
				KillNode:       1,
				BarrierTimeout: 100 * sim.Millisecond,
			}
		}},
		{"scan_seeks_segmented", func(c *Config) {
			c.Prefetch = true
			c.Predictor = predict.OBL
			c.Layout = interleave.Segmented
			c.DiskSched = disk.SCAN
			c.DiskSeekPerBlock = 100 * sim.Microsecond
			c.DiskMaxSeek = 10 * sim.Millisecond
		}},
	}
	kinds := []pattern.Kind{pattern.GW, pattern.LW, pattern.LRP}
	for si, sc := range scenarios {
		sc := sc
		kind := kinds[si%len(kinds)]
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(kind)
			cfg.Procs = 4
			cfg.Disks = 4
			cfg.Pattern.Procs = 4
			cfg.Pattern.BlocksPerProc = 30
			cfg.Pattern.TotalBlocks = 120
			sc.mutate(&cfg)
			want := resultJSON(t, cfg)
			if got := resultJSON(t, cfg); got != want {
				t.Errorf("repeat run diverged\n got: %.400s\nwant: %.400s", got, want)
			}
		})
	}
}

// TestChaosSmoke is the chaos smoke pinned in CI: one run combining
// disk faults, a processor kill with quorum-released barriers,
// prefetching, and the runtime invariant auditor. The assertion here
// is completion plus the usual accounting identity; the auditor
// supplies the real teeth.
func TestChaosSmoke(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(pattern.LW)
	cfg.Procs = 4
	cfg.Disks = 3
	cfg.Pattern.Procs = 4
	cfg.Pattern.BlocksPerProc = 40
	cfg.Pattern.TotalBlocks = 160
	cfg.Prefetch = true
	cfg.Sync = barrier.EveryNPerProc
	cfg.SyncEveryPerProc = 5
	cfg.AuditEvery = 3 * sim.Millisecond
	cfg.Fault = fault.Config{
		Seed:            21,
		ReadErrorRate:   0.05,
		SpikeRate:       0.1,
		SpikeMultiplier: 4,
		StuckRate:       0.02,
		Timeout:         150 * sim.Millisecond,
	}
	cfg.NodeFault = fault.NodeConfig{
		Seed:           13,
		KillAt:         250 * sim.Millisecond,
		KillNode:       2,
		BarrierTimeout: 80 * sim.Millisecond,
		StallRate:      0.02,
	}
	r := MustRun(cfg)
	// Failed fills are retried through the cache, so accesses can
	// exceed the block count — but never fall short of it.
	wantReads := cfg.Procs * cfg.Pattern.BlocksPerProc
	if got := int(r.Cache.Accesses()); got < wantReads {
		t.Fatalf("accesses %d, want at least %d", got, wantReads)
	}
	if r.Faults.Node.DeadProcs != 1 {
		t.Fatalf("DeadProcs = %d, want 1", r.Faults.Node.DeadProcs)
	}
}
