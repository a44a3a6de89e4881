package crashcheck

import (
	"testing"

	"onefile/internal/testutil"
)

// fastWorkloads returns the fast-path workload of p on both OneFile PTMs.
func fastWorkloads(t *testing.T, p *FastProgram) []Workload {
	t.Helper()
	var ws []Workload
	for _, def := range onefilePTMs(t) {
		ws = append(ws, Fast(def, p))
	}
	return ws
}

// TestCrashMatrixFastPath is the fast-path acceptance sweep: crash at every
// persistence event of the small-transaction workload on both OneFile PTMs,
// in StrictMode and across RelaxedMode device seeds, on the simulator — and
// demand zero violations. This is the sweep that pins the adoption recovery
// protocol: fast commits never flush the curTx image, so many of these
// crash points recover from durable words that run ahead of the durable
// image.
func TestCrashMatrixFastPath(t *testing.T) {
	seed := testutil.Seed(t, 1)
	txns, relaxed := 12, []int64{1, 2, 3, 4}
	if testing.Short() {
		txns, relaxed = 8, []int64{1}
	}
	sweep(t, Config{
		Workloads:    fastWorkloads(t, NewFastProgram(seed, txns)),
		Strict:       true,
		RelaxedSeeds: relaxed,
	})
}

// TestCrashMatrixFastPathFileDevice re-runs the fast-path sweep with every
// device a real mmap-backed file: adoption recovery must not depend on the
// simulator's semantics.
func TestCrashMatrixFastPathFileDevice(t *testing.T) {
	seed := testutil.Seed(t, 1)
	cfg := Config{
		Workloads:    fastWorkloads(t, NewFastProgram(seed, 10)),
		Strict:       true,
		RelaxedSeeds: []int64{1, 2},
		Device:       FileDevices(testutil.TmpfsDir(t)),
	}
	if testing.Short() {
		cfg.Workloads = fastWorkloads(t, NewFastProgram(seed, 6))
		cfg.Stride = 3
		cfg.RelaxedSeeds = nil
	}
	sweep(t, cfg)
}

// TestFastSweepRejectsNonFastPath: the sweep on an engine without a fast
// path is a configuration error, not a silently weaker check.
func TestFastSweepRejectsNonFastPath(t *testing.T) {
	def, err := EngineByName("PMDK")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Workloads: []Workload{Fast(def, NewFastProgram(1, 3))}, Strict: true}); err == nil {
		t.Fatal("fast-path sweep on PMDK did not error")
	}
}
