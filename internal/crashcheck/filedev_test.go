package crashcheck

import (
	"testing"

	"onefile/internal/testutil"
)

// TestCrashMatrixFileDevice re-runs the enumerated crash matrix with every
// device a real mmap-backed file: the same engines, the same workload, the
// same oracle — only the persistence layer changes. Zero violations proves
// the engines' recovery protocol does not secretly depend on the simulator.
func TestCrashMatrixFileDevice(t *testing.T) {
	seed := testutil.Seed(t, 1)
	cfg := Config{
		Workloads:    canonical(NewProgram(seed, 6)),
		Strict:       true,
		RelaxedSeeds: []int64{1, 2},
		Device:       FileDevices(testutil.TmpfsDir(t)),
	}
	if testing.Short() {
		cfg.Workloads = canonical(NewProgram(seed, 4))
		cfg.Stride = 3
		cfg.RelaxedSeeds = nil
	}
	sweep(t, cfg)
}
