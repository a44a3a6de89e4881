package crashcheck

import (
	"testing"

	"onefile/internal/testutil"
)

// sweep runs cfg and fails t on an error, on any violation, or when the
// matrix exercised no crash point.
func sweep(t *testing.T, cfg Config) {
	t.Helper()
	cfg.Logf = t.Logf
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("%d crash points, %d violations", res.Points, len(res.Violations))
	if res.Points == 0 {
		t.Fatal("matrix exercised no crash points")
	}
}

// canonical returns the canonical workload of p on every persistent engine.
func canonical(p *Program) []Workload {
	var ws []Workload
	for _, def := range Engines() {
		ws = append(ws, Canonical(def, p))
	}
	return ws
}

// onefilePTMs returns the engines with a group-commit combiner and a
// small-transaction fast path: the two OneFile PTMs.
func onefilePTMs(t *testing.T) []EngineDef {
	t.Helper()
	var defs []EngineDef
	for _, name := range []string{"OF-LF-PTM", "OF-WF-PTM"} {
		def, err := EngineByName(name)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, def)
	}
	return defs
}

// TestCrashMatrix is the acceptance sweep: crash at every persistence event
// of the canonical workload, for every persistent engine, in StrictMode and
// (full mode) across eight RelaxedMode device seeds, and demand zero
// violations. -short bounds the run for CI's race build: a smaller program,
// and no relaxed seeds (the strided relaxed sweep is its own test).
// StrictMode stays exhaustive — it is the cheap half and the paper's core
// claim.
func TestCrashMatrix(t *testing.T) {
	seed := testutil.Seed(t, 1)
	txns, relaxed := 6, []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		txns, relaxed = 4, nil
	}
	sweep(t, Config{
		Workloads:    canonical(NewProgram(seed, txns)),
		Strict:       true,
		RelaxedSeeds: relaxed,
	})
}

// TestCrashMatrixRelaxedStride keeps a strided RelaxedMode sweep in the
// -short tier so the buffered-flush drop path is exercised under the race
// detector too, at a bounded cost.
func TestCrashMatrixRelaxedStride(t *testing.T) {
	if !testing.Short() {
		t.Skip("covered exhaustively by TestCrashMatrix in full mode")
	}
	seed := testutil.Seed(t, 1)
	sweep(t, Config{
		Workloads:    canonical(NewProgram(seed, 4)),
		Stride:       5,
		RelaxedSeeds: []int64{11, 12, 13},
	})
}

// TestCrashMatrixCombined is the batch-atomicity sweep: workload
// transactions are merged into combined engine transactions by the
// combiner, and a crash at every persistence event must recover to a state
// before or after each whole chunk — never an intermediate prefix (a torn
// batch). StrictMode, both OneFile PTMs.
func TestCrashMatrixCombined(t *testing.T) {
	seed := testutil.Seed(t, 1)
	txns := 8
	if testing.Short() {
		txns = 5
	}
	p := NewProgram(seed, txns)
	var ws []Workload
	for _, def := range onefilePTMs(t) {
		ws = append(ws, Batched(def, p, 4))
	}
	sweep(t, Config{Workloads: ws, Strict: true})
}

// TestBatchedSweepRejectsNonCombining: batched mode on an engine without a
// combiner is a configuration error, not a silent per-op fallback.
func TestBatchedSweepRejectsNonCombining(t *testing.T) {
	def, err := EngineByName("PMDK")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{Workloads: []Workload{Batched(def, NewProgram(1, 3), 4)}, Strict: true}); err == nil {
		t.Fatal("batched sweep on PMDK did not error")
	}
}
