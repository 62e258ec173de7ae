package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// check verifies one run's Result against invariants that hold for
// every correct run, independent of any recorded golden:
//
//   - every read the reference string owes reached the cache, plus one
//     extra access per retried read (ready + unready hits + misses =
//     pattern reads + read retries);
//   - on fault-free workloads, the disk utilization law: the busy time
//     the disks report equals the requests they served times the fixed
//     access time (the default configs have no seek component);
//   - on traced runs, the counter sink agrees with the Result.
//
// ctr is nil on untraced runs.
func check(cfg core.Config, res *core.Result, reads int, faultFree bool, ctr *obs.Counters) error {
	c := res.Cache
	accesses := c.ReadyHits + c.UnreadyHits + c.Misses
	if want := int64(reads) + res.Faults.ReadRetries; accesses != want {
		return fmt.Errorf("cache accesses %d (ready %d + unready %d + misses %d) != pattern reads %d + retries %d",
			accesses, c.ReadyHits, c.UnreadyHits, c.Misses, reads, res.Faults.ReadRetries)
	}
	if res.TotalTime <= 0 {
		return fmt.Errorf("non-positive total time %v", res.TotalTime)
	}
	if faultFree {
		if res.Faults.ReadRetries != 0 || c.FailedFills != 0 {
			return fmt.Errorf("fault-free run retried %d reads, failed %d fills", res.Faults.ReadRetries, c.FailedFills)
		}
		requests := res.DiskResponse.N()
		busy := res.DiskUtilization * float64(res.TotalTime) * float64(cfg.Disks)
		served := float64(requests) * float64(cfg.DiskAccess)
		if math.Abs(busy-served) > 1e-9*served+1 {
			return fmt.Errorf("utilization law: %.6g busy µs != %d requests × %v", busy, requests, cfg.DiskAccess)
		}
	}
	if ctr == nil {
		return nil
	}
	for _, p := range []struct {
		name      string
		got, want int64
	}{
		{"ready hits", ctr[obs.CtrCacheReadyHits], c.ReadyHits},
		{"unready hits", ctr[obs.CtrCacheUnreadyHits], c.UnreadyHits},
		{"misses", ctr[obs.CtrCacheMisses], c.Misses},
		{"prefetches issued", ctr[obs.CtrCachePrefetchesIssued], c.PrefetchesIssued},
		{"failed fills", ctr[obs.CtrCacheFailedFills], c.FailedFills},
		{"read retries", ctr[obs.CtrReadRetries], res.Faults.ReadRetries},
		{"disk requests", ctr[obs.CtrDiskRequests], res.DiskResponse.N()},
	} {
		if p.got != p.want {
			return fmt.Errorf("counter sink %s = %d, Result says %d", p.name, p.got, p.want)
		}
	}
	return nil
}
