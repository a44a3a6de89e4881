package crashcheck

import (
	"strings"
	"testing"

	"onefile/internal/pmem"
)

// namedWorkload is a workload with its subtest name.
type namedWorkload struct {
	name string
	w    Workload
}

// allKinds returns small instances of every workload kind: the canonical
// program on every engine, the batched and fast-path programs on both
// OneFile PTMs, and the sharded program over two and three shards.
func allKinds(t *testing.T) []namedWorkload {
	var ws []namedWorkload
	for _, w := range canonical(NewProgram(1, 6)) {
		ws = append(ws, namedWorkload{w.Name(), w})
	}
	for _, def := range onefilePTMs(t) {
		ws = append(ws,
			namedWorkload{"batched/" + def.Name, Batched(def, NewProgram(1, 6), 4)},
			namedWorkload{"fast/" + def.Name, Fast(def, NewFastProgram(1, 12))})
	}
	for _, w := range []Workload{
		Sharded(NewShardedProgram(3, 2, 6), false),
		Sharded(NewShardedProgram(7, 3, 12), false),
		Sharded(NewShardedProgram(3, 2, 6), true),
	} {
		ws = append(ws, namedWorkload{"sharded/" + w.Name(), w})
	}
	return ws
}

// TestEnumerateDeterministic proves, for every workload kind, that the
// crash-point space and its oracle are well-defined: two enumerations count
// the same nonzero number of events, every prefix digest is distinct
// (otherwise a missed transaction could hide behind an equal neighbour),
// and a run that completes, then loses power, recovers onto the final
// oracle state.
func TestEnumerateDeterministic(t *testing.T) {
	for _, nw := range allKinds(t) {
		w := nw.w
		t.Run(nw.name, func(t *testing.T) {
			seen := map[string]int{}
			for k := 0; k <= w.Len(); k++ {
				if prev, dup := seen[w.StateAfter(k)]; dup {
					t.Fatalf("oracle digests after %d and %d transactions collide", prev, k)
				}
				seen[w.StateAfter(k)] = k
			}

			a, err := Enumerate(w, nil, pmem.StrictMode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Enumerate(w, nil, pmem.StrictMode)
			if err != nil {
				t.Fatal(err)
			}
			if a != b || a == 0 {
				t.Fatalf("event counts %d vs %d", a, b)
			}
			t.Logf("%s: %d events", nw.name, a)

			devs, run, err := w.Open(nil, pmem.StrictMode, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer closeAll(devs)
			acked := 0
			if err := run(func(n int) { acked += n }); err != nil {
				t.Fatal(err)
			}
			if acked != w.Len() {
				t.Fatalf("acked %d of %d transactions", acked, w.Len())
			}
			for _, d := range devs {
				d.Crash()
			}
			if err := RecoverAndVerify(w, devs, acked); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// dropFlushes is a broken device: it drops every pwb, so nothing an engine
// writes, its format included, ever becomes durable.
type dropFlushes struct{ pmem.Device }

func (dropFlushes) Flush(int, int, int)                {}
func (dropFlushes) FlushPair(int, int, uint64, uint64) {}
func (dropFlushes) FlushPairLine(int, int, *[pmem.PairLineWords]int, *[pmem.PairLineWords]uint64, *[pmem.PairLineWords]uint64) {
}

// TestCheckerCatchesDroppedFlushes is the checker's own negative test: on a
// device that loses every pwb, each workload kind must report violations
// that carry their replay coordinates, and the sweep must run to the end.
func TestCheckerCatchesDroppedFlushes(t *testing.T) {
	broken := func(cfg pmem.Config) (pmem.Device, error) {
		d, err := pmem.New(cfg)
		return dropFlushes{d}, err
	}
	defs := onefilePTMs(t)
	for _, nw := range []namedWorkload{
		{"canonical", Canonical(defs[0], NewProgram(1, 2))},
		{"batched", Batched(defs[1], NewProgram(1, 4), 2)},
		{"fast", Fast(defs[0], NewFastProgram(1, 4))},
		{"sharded", Sharded(NewShardedProgram(1, 2, 3), false)},
	} {
		t.Run(nw.name, func(t *testing.T) {
			res, err := Run(Config{Workloads: []Workload{nw.w}, Strict: true, Device: broken})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("%d crash points on a device that drops every pwb, no violation", res.Points)
			}
			v := res.Violations[0]
			if v.Engine != nw.w.Name() || v.Mode != pmem.StrictMode || v.Seed != 1 || v.Txns == 0 || v.Event == 0 {
				t.Fatalf("violation lacks its replay coordinates: %s", v)
			}
			t.Logf("%d of %d points violated; first: %s", len(res.Violations), res.Points, v)
		})
	}
}

// panicsInRecovery is a workload whose recovery panics.
type panicsInRecovery struct{ Workload }

func (panicsInRecovery) Recover([]pmem.Device, func(string) error) error { panic("attach exploded") }

// TestRecoveryPanicIsViolation: a panic during recovery is one failed
// point, reported with its coordinates, not the end of the sweep.
func TestRecoveryPanicIsViolation(t *testing.T) {
	def, err := EngineByName("OF-LF-PTM")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Workloads: []Workload{panicsInRecovery{Canonical(def, NewProgram(1, 2))}},
		Strict:    true,
		Stride:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 2 || len(res.Violations) != res.Points {
		t.Fatalf("%d points, %d violations: want every point reported", res.Points, len(res.Violations))
	}
	for _, v := range res.Violations {
		if !strings.Contains(v.Detail, "panic during recovery: attach exploded") {
			t.Fatalf("violation does not report the panic: %s", v)
		}
	}
}
