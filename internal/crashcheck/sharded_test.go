package crashcheck

import (
	"fmt"
	"testing"

	"onefile/internal/testutil"
)

// TestCrashMatrixSharded is the cross-shard matrix on the simulator: every
// global persistence event of the 2-shard and 3-shard workloads, strict and
// relaxed, with zero tolerated atomicity violations.
func TestCrashMatrixSharded(t *testing.T) {
	for _, shards := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			seed := testutil.Seed(t, 1)
			cfg := Config{
				Workloads:    []Workload{Sharded(NewShardedProgram(seed, shards, 8), false)},
				Strict:       true,
				RelaxedSeeds: []int64{1, 2},
			}
			if testing.Short() {
				cfg.Workloads = []Workload{Sharded(NewShardedProgram(seed, shards, 5), false)}
				cfg.Stride = 4
				cfg.RelaxedSeeds = []int64{1}
			}
			sweep(t, cfg)
		})
	}
}

// TestCrashMatrixShardedWaitFree sweeps the wait-free engine variant: the
// 2PC path must be engine-flavour agnostic.
func TestCrashMatrixShardedWaitFree(t *testing.T) {
	seed := testutil.Seed(t, 2)
	cfg := Config{Workloads: []Workload{Sharded(NewShardedProgram(seed, 2, 6), true)}, Strict: true}
	if testing.Short() {
		cfg.Workloads = []Workload{Sharded(NewShardedProgram(seed, 2, 4), true)}
		cfg.Stride = 5
	}
	sweep(t, cfg)
}

// TestCrashMatrixShardedFileDevice re-runs the cross-shard matrix with
// every shard device a real mmap-backed file: the 2PC recovery protocol
// must not secretly depend on the simulator.
func TestCrashMatrixShardedFileDevice(t *testing.T) {
	seed := testutil.Seed(t, 3)
	cfg := Config{
		Workloads: []Workload{Sharded(NewShardedProgram(seed, 2, 6), false)},
		Strict:    true,
		Device:    FileDevices(testutil.TmpfsDir(t)),
	}
	if testing.Short() {
		cfg.Workloads = []Workload{Sharded(NewShardedProgram(seed, 2, 4), false)}
		cfg.Stride = 5
	}
	sweep(t, cfg)
}
