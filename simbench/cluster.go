package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The cluster pair runs the compact node engine at the cluster sweep's
// balanced operating point: four nodes per disk, 16 blocks per node,
// and ComputeMean = (2·4 − 1)·DiskAccess, which puts each disk near
// 50% busy.
const (
	clusterBlocksPerNode = 16
	clusterComputeRatio  = 7
	chaosRacks           = 16
)

func init() {
	register(workload{name: "cluster-clean", faultFree: true, build: clusterClean})
	register(workload{name: "cluster-chaos", build: clusterChaos})
}

func clusterConfig(nodes, disks int, seed uint64) core.Config {
	cfg := core.ScaleConfig(nodes, disks, true)
	cfg.Seed = seed
	cfg.Pattern.Seed = seed
	cfg.Pattern.TotalBlocks = clusterBlocksPerNode * nodes
	cfg.ComputeMean = clusterComputeRatio * cfg.DiskAccess
	return cfg
}

// clusterClean is one fault-free 20k-node run: cluster-chaos without
// its faults. At this size a pass takes about 2 s, so one invocation
// gets a median over a dozen or more passes.
func clusterClean(seed uint64) []core.Config {
	return []core.Config{clusterConfig(20_000, 5_000, seed)}
}

// clusterChaos is one 20k-node run under the kill-free chaos
// composition of the cluster chaos study: 1% transient read errors,
// 1% node stalls of 1 ms mean, a 3× service storm on the first rack
// from 50 to 250 ms, and a 2× straggler spread on the last rack.
func clusterChaos(seed uint64) []core.Config {
	cfg := clusterConfig(20_000, 5_000, seed)
	cfg.Fault = fault.Config{Seed: seed + 11, ReadErrorRate: 0.01}
	cfg.NodeFault.Seed = seed + 5
	cfg.NodeFault.StallRate = 0.01
	cfg.NodeFault.StallMean = sim.Millisecond
	cfg.Domain = fault.DomainConfig{
		Seed:            seed + 9,
		Domains:         fault.SplitDomains("rack", cfg.Disks, cfg.Procs, chaosRacks),
		StormDomain:     "rack0",
		StormAt:         50 * sim.Millisecond,
		StormFor:        200 * sim.Millisecond,
		StormFactor:     3,
		StormJitter:     10 * sim.Millisecond,
		StragglerDomain: fmt.Sprintf("rack%d", chaosRacks-1),
		StragglerFactor: 2,
		StragglerRate:   0.25,
	}
	return []core.Config{cfg}
}
