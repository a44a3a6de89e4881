// Package crashcheck is the systematic crash-consistency verifier for every
// persistent engine in this repository. Where internal/bench's kill test
// crashes at *random* persistence events, crashcheck enumerates *all* of
// them: it runs a workload once to count the persistence events
// (pwb/pfence/drain) it issues, then re-runs it once per event index i,
// simulating a whole-machine crash at exactly event i (the pre-event hook of
// internal/pmem panics before the event takes effect, and keeps panicking so
// a "dead" process cannot make anything else durable), invokes Crash on
// every device, re-attaches and verifies:
//
//   - recovery succeeds (magic, sequence bounds — the engines' own attach
//     invariants, e.g. core.ErrCorrupt, fail the point);
//   - the allocator audits clean (talloc.Audit tiles the heap exactly);
//   - the recovered logical state equals the sequential oracle model after
//     exactly k committed transactions, where k is the number of
//     transactions acknowledged before the crash or that number plus the
//     in-flight window (all-or-nothing, never torn);
//   - the recovered engine still commits and reads (liveness).
//
// Every workload implements one interface, Workload, and one driver
// (Enumerate, RunPoint, RecoverAndVerify, Run) sweeps them all. There are
// four: the canonical container program (Canonical), the same program
// submitted through the group-commit combiner (Batched), the
// small-transaction fast-path program (Fast) and the cross-shard 2PC
// program over several devices (Sharded). A multi-device workload shares
// one event counter across its devices, so the crash hits the whole
// machine at one global persistence event.
//
// In RelaxedMode the device additionally drops a seed-chosen subset of
// buffered-but-unfenced flushes at the crash, so the same enumeration is
// swept across device seeds — every failure report carries (engine, mode,
// device seed, workload seed, event index) and is exactly replayable.
//
// The design follows the systematic-enumeration methodology of the PMDK
// validation line of work (Raad et al.), replacing random kill timing with
// exhaustive persistence-event coverage.
package crashcheck

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/romulus"
	"onefile/internal/talloc"
	"onefile/internal/tm"
	"onefile/internal/undolog"
)

// EngineDef names one persistent engine and how to size its device and
// build (attach=false) or recover (attach=true) it.
type EngineDef struct {
	Name         string
	DeviceConfig func(mode pmem.Mode, seed int64, opts ...tm.Option) pmem.Config
	New          func(dev pmem.Device, attach bool, opts ...tm.Option) (tm.Engine, error)
}

// Engines returns every persistent engine in the repository, in a fixed
// order: the two OneFile PTMs, the undo-log (PMDK-style) PTM and the two
// Romulus variants.
func Engines() []EngineDef {
	return []EngineDef{
		{"OF-LF-PTM", core.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return core.NewPersistentLF(d, a, o...)
		}},
		{"OF-WF-PTM", core.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return core.NewPersistentWF(d, a, o...)
		}},
		{"PMDK", undolog.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return undolog.New(d, a, o...)
		}},
		{"RomulusLog", romulus.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return romulus.NewLog(d, a, o...)
		}},
		{"RomulusLR", romulus.DeviceConfig, func(d pmem.Device, a bool, o ...tm.Option) (tm.Engine, error) {
			return romulus.NewLR(d, a, o...)
		}},
	}
}

// EngineByName returns the definition for name.
func EngineByName(name string) (EngineDef, error) {
	for _, d := range Engines() {
		if d.Name == name {
			return d, nil
		}
	}
	return EngineDef{}, fmt.Errorf("crashcheck: unknown persistent engine %q", name)
}

// engineOpts sizes the engines under test. Small on purpose: the sweep
// re-runs the workload once per persistence event, so recovery cost (which
// scales with the heap for Romulus's replica copy and OneFile's image scan)
// multiplies by the event count.
func engineOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 13),
		tm.WithMaxThreads(4),
		tm.WithMaxStores(1 << 10),
	}
}

// openEngine formats one fresh device for def and builds the engine on it.
func openEngine(fac DeviceFactory, def EngineDef, mode pmem.Mode, devSeed int64) (pmem.Device, tm.Engine, error) {
	dev, err := fac.newDevice(def.DeviceConfig(mode, devSeed, engineOpts()...))
	if err != nil {
		return nil, nil, err
	}
	e, err := def.New(dev, false, engineOpts()...)
	if err != nil {
		dev.Close()
		return nil, nil, err
	}
	return dev, e, nil
}

// crashSignal is the panic value of the simulated power failure. Once the
// hook fires it keeps firing for every later persistence event, so a dead
// process cannot make anything more durable (e.g. a rollback running inside
// a deferred handler while the crash panic unwinds).
type crashSignal struct{ event int }

// DeviceFactory builds one fresh device. nil means the in-memory simulator
// (pmem.New). Every call must return a distinct device: each point formats
// from scratch, and a multi-device workload holds several at once.
type DeviceFactory func(cfg pmem.Config) (pmem.Device, error)

func (f DeviceFactory) newDevice(cfg pmem.Config) (pmem.Device, error) {
	if f == nil {
		return pmem.New(cfg)
	}
	return f(cfg)
}

// FileDevices returns a DeviceFactory that formats every device as a fresh
// mmap-backed file in dir. The file is unlinked as soon as it is mapped: the
// mapping keeps it alive until Close, so a point may hold any number of
// devices and a sweep leaves no files behind. Points run one at a time; the
// factory is not for concurrent use.
func FileDevices(dir string) DeviceFactory {
	path := filepath.Join(dir, "crashcheck.img")
	return func(cfg pmem.Config) (pmem.Device, error) {
		d, err := filedev.Create(path, cfg)
		if err != nil {
			return nil, err
		}
		if err := os.Remove(path); err != nil {
			d.Close()
			return nil, err
		}
		return d, nil
	}
}

// Workload is one crash-checked program bound to the engine or store it
// runs on: a deterministic transaction list, the oracle digest after each
// prefix of it, and how to run it on fresh devices and recover it from
// post-crash ones. Every crash point of every workload goes through the same
// driver (Enumerate, RunPoint, RecoverAndVerify).
type Workload interface {
	// Name labels the workload in progress lines and violations: the engine
	// name, or the engine and shard count.
	Name() string
	// Len is the number of transactions, setup included.
	Len() int
	// StateAfter is the oracle digest after the first k transactions.
	StateAfter(k int) string
	// Open formats fresh devices from fac (nil = simulator) and builds the
	// engine or store over them, or errors when the workload is not
	// meaningful on that engine. run executes the whole program, calling
	// acked with the number of transactions each returned call carried.
	Open(fac DeviceFactory, mode pmem.Mode, devSeed int64) (devs []pmem.Device, run func(acked func(n int)) error, err error)
	// Inflight is how many transactions the call in flight after acked
	// acknowledged ones carries: 1, or a combined batch's whole chunk.
	Inflight(acked int) int
	// Recover attaches to post-crash devices, audits the allocator, passes
	// the recovered state's digest to check (returning its error) and then
	// checks that the recovered engine or store still commits.
	Recover(devs []pmem.Device, check func(state string) error) error
	// ident returns what a report names besides Name: the workload seed,
	// the mixed-transaction count and the batch size (0 = unbatched).
	ident() (seed int64, txns, batch int)
}

// Config parameterises a matrix run.
type Config struct {
	// Workloads to sweep, in order.
	Workloads []Workload
	// Stride checks every Stride-th event index (1 = exhaustive).
	Stride int
	// Strict enables the StrictMode sweep.
	Strict bool
	// RelaxedSeeds are device seeds for the RelaxedMode sweeps (device i of
	// a multi-device workload gets seed+i); empty disables RelaxedMode.
	RelaxedSeeds []int64
	// Device builds every device of every point; nil = simulator.
	Device DeviceFactory
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Violation is one failed crash point, with everything needed to replay it.
type Violation struct {
	Engine  string
	Mode    pmem.Mode
	DevSeed int64
	Seed    int64
	Txns    int
	Event   int
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s mode=%d devseed=%d wlseed=%d txns=%d event=%d: %s",
		v.Engine, v.Mode, v.DevSeed, v.Seed, v.Txns, v.Event, v.Detail)
}

// Result summarises a matrix run.
type Result struct {
	Points     int // crash points exercised
	Violations []Violation
}

// trace is what one execution of a workload left behind.
type trace struct {
	devs    []pmem.Device // the workload's devices; the caller closes them
	events  int           // persistence events issued, over all devices
	acked   int           // transactions acknowledged before the crash
	crashed bool          // the crash fired before the workload finished
}

// execute opens w on fresh devices and runs it with one persistence-event
// counter shared by all of them. With crashAt > 0 the crashAt-th event
// (1-based) panics with crashSignal, and so does every later one.
func execute(w Workload, fac DeviceFactory, mode pmem.Mode, devSeed int64, crashAt int) (tr trace, err error) {
	devs, run, err := w.Open(fac, mode, devSeed)
	if err != nil {
		return tr, err
	}
	tr.devs = devs
	for _, d := range devs {
		d.SetHook(func(pmem.Event) {
			tr.events++
			if crashAt > 0 && tr.events >= crashAt {
				panic(crashSignal{event: crashAt})
			}
		})
	}
	tr.crashed, err = runGuarded(run, func(n int) { tr.acked += n })
	for _, d := range devs {
		d.SetHook(nil)
	}
	return tr, err
}

// runGuarded runs a workload, reporting the simulated power failure as
// crashed and any other panic as an error.
func runGuarded(run func(acked func(n int)) error, acked func(n int)) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				err = fmt.Errorf("workload panicked: %v", r)
				return
			}
			crashed = true
		}
	}()
	return false, run(acked)
}

func closeAll(devs []pmem.Device) {
	for _, d := range devs {
		d.Close()
	}
}

// Enumerate runs w to completion on fresh devices and returns the number of
// persistence events it issues over all of them (the crash-point space).
// The count is a pure function of (workload, mode): every workload is
// single-threaded and every engine schedules deterministically.
func Enumerate(w Workload, fac DeviceFactory, mode pmem.Mode) (int, error) {
	tr, err := execute(w, fac, mode, 1, 0)
	closeAll(tr.devs)
	return tr.events, err
}

// RunPoint runs w on fresh devices, crashes every device at global
// persistence event number event (1-based), recovers and verifies. It
// returns (completed, err): completed is true when the workload finished
// before reaching the event (the index is past the end of the trace), err
// is non-nil on an invariant violation.
func RunPoint(w Workload, fac DeviceFactory, mode pmem.Mode, devSeed int64, event int) (completed bool, err error) {
	tr, err := execute(w, fac, mode, devSeed, event)
	defer closeAll(tr.devs)
	if err != nil || !tr.crashed {
		return err == nil, err
	}
	// The power failure: lose everything that was not durable.
	for _, d := range tr.devs {
		d.Crash()
	}
	return false, RecoverAndVerify(w, tr.devs, tr.acked)
}

// RecoverAndVerify recovers w from devs, which must hold a post-crash image
// set, and checks every invariant: recovery succeeds, the allocator audits
// clean, the logical state is exactly StateAfter(acked) or
// StateAfter(acked+Inflight(acked)), and the recovered engine still
// commits. A state equal to an intermediate prefix of the in-flight window
// is reported as a torn batch. A panic anywhere in recovery or verification
// is returned as an error, so one bad point cannot stop a sweep. The
// enumerated sweep and the torn-msync tests use it.
func RecoverAndVerify(w Workload, devs []pmem.Device, acked int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("after %d acked txns: panic during recovery: %v", acked, r)
		}
	}()
	next := min(acked+w.Inflight(acked), w.Len())
	err = w.Recover(devs, func(got string) error {
		if got == w.StateAfter(acked) || got == w.StateAfter(next) {
			return nil
		}
		for k := acked + 1; k < next; k++ {
			if got == w.StateAfter(k) {
				return fmt.Errorf("TORN BATCH: recovered to intermediate prefix k=%d of in-flight chunk [%d,%d]",
					k, acked+1, next)
			}
		}
		return fmt.Errorf("oracle divergence:\n--- recovered ---\n%s\n--- want (k=%d) ---\n%s\n--- or (k=%d) ---\n%s",
			got, acked, w.StateAfter(acked), next, w.StateAfter(next))
	})
	if err != nil {
		return fmt.Errorf("after %d acked txns: %w", acked, err)
	}
	return nil
}

// audit reports whether e's heap tiles into valid allocator blocks.
func audit(e tm.Engine) bool {
	db, ok := e.(interface{ DynBase() tm.Ptr })
	if !ok {
		return false
	}
	e.Read(func(tx tm.Tx) uint64 {
		_, _, ok = talloc.Audit(tx, db.DynBase())
		return 0
	})
	return ok
}

// live checks that a recovered engine still commits and reads, through a
// full update and, with small, through tm.UpdateSmall too: the recovered
// sequence must be a valid base for both commit protocols.
func live(e tm.Engine, small bool) error {
	e.Update(func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(8), 0xBEEF)
		return 0
	})
	if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(8)) }); v != 0xBEEF {
		return errors.New("post-recovery update lost")
	}
	if !small {
		return nil
	}
	tm.UpdateSmall(e, func(tx tm.Tx) uint64 {
		tx.Store(tm.Root(9), 0xF00D)
		return 0
	})
	if v := e.Read(func(tx tm.Tx) uint64 { return tx.Load(tm.Root(9)) }); v != 0xF00D {
		return errors.New("post-recovery fast-path update lost")
	}
	return nil
}

// Run executes the crash-point matrix described by cfg and returns the
// aggregated result. It never stops at the first violation: the full list
// of failing points is part of the report.
func Run(cfg Config) (*Result, error) {
	stride := max(cfg.Stride, 1)
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	type sweep struct {
		mode    pmem.Mode
		devSeed int64
	}
	var sweeps []sweep
	if cfg.Strict {
		sweeps = append(sweeps, sweep{pmem.StrictMode, 1})
	}
	for _, s := range cfg.RelaxedSeeds {
		sweeps = append(sweeps, sweep{pmem.RelaxedMode, s})
	}

	res := &Result{}
	for _, w := range cfg.Workloads {
		seed, txns, batch := w.ident()
		for _, sw := range sweeps {
			events, err := Enumerate(w, cfg.Device, sw.mode)
			if err != nil {
				return nil, fmt.Errorf("crashcheck: enumerating %s: %w", w.Name(), err)
			}
			logf("%s mode=%d devseed=%d batch=%d: %d persistence events, checking every %d",
				w.Name(), sw.mode, sw.devSeed, batch, events, stride)
			for i := 1; i <= events; i += stride {
				completed, err := RunPoint(w, cfg.Device, sw.mode, sw.devSeed, i)
				if completed {
					break
				}
				res.Points++
				if err != nil {
					v := Violation{
						Engine: w.Name(), Mode: sw.mode, DevSeed: sw.devSeed,
						Seed: seed, Txns: txns, Event: i, Detail: err.Error(),
					}
					res.Violations = append(res.Violations, v)
					logf("VIOLATION %s", v)
				}
			}
		}
	}
	return res, nil
}
