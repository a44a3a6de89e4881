// Command perfbench is the repository's standing benchmark. It runs one
// of three closed-loop workloads for a fixed time, checks after a
// simulated crash that every acknowledged write survived, and prints the
// metrics as the last line of its output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also measures an instrumented instance and prints the per-layer ones.
// BENCHMARK.json at the repository root lists both sets, and NOTES.md next
// to this file says what each metric means. Run it through run.py, which
// builds it inside the checkout:
//
//	python3 perfbench/run.py --workload kv-write --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"onefile/internal/core"
	"onefile/internal/pmem"
)

// bench is one set-up instance of a workload.
type bench interface {
	// counters reads the program's own counters.
	counters() layerCounters
	// drive runs the closed loop until clk ends, counting completed
	// operations in prog, one entry per client.
	drive(clk clock, prog []progress) *window
	// quiesce stops serving; every acknowledged reply has been read.
	quiesce() error
	// crashAttach closes and drops the engines, crashes every device and
	// re-attaches new engines, and returns how long the crash and
	// re-attach took.
	crashAttach() (time.Duration, error)
	// verify compares the recovered state with the acknowledged writes.
	verify() []string
	close() error
}

// setupFunc sets up one instance of a workload over inputs prepared
// beforehand; t is nil for an untraced instance.
type setupFunc func(t *tracer) (bench, error)

// workload is one workload: prepare makes its inputs from a seed, formats
// its device image in the scratch directory, and returns the set-up over
// them. readOp and writeOp are the operations whose latencies the
// end-to-end read_p50_us and write_p50_us report, since every workload
// must report every end-to-end metric.
type workload struct {
	name            string
	readOp, writeOp int
	prepare         func(seed int64, scratch string) (setupFunc, error)
}

var workloads = []workload{
	{name: "kv-write", readOp: opGet, writeOp: opSet, prepare: kvWorkload(kvWriteConfig)},
	{name: "kv-read", readOp: opGet, writeOp: opSet, prepare: kvWorkload(kvReadConfig)},
	{name: "tx-mix", readOp: opRead, writeOp: opSmall, prepare: func(seed int64, scratch string) (setupFunc, error) {
		cfg := txMixConfig()
		img, err := formatImage(scratch, "shard", core.DeviceConfig(pmem.StrictMode, 1, cfg.opts()...))
		if err != nil {
			return nil, err
		}
		streams := genTx(cfg, seed)
		return func(t *tracer) (bench, error) { return setupTx(cfg, streams, img, t) }, nil
	}},
}

func kvWorkload(config func() kvConfig) func(seed int64, scratch string) (setupFunc, error) {
	return func(seed int64, scratch string) (setupFunc, error) {
		cfg := config()
		img, err := formatImage(scratch, "kv", core.DeviceConfig(pmem.StrictMode, 1, cfg.opts()...))
		if err != nil {
			return nil, err
		}
		in := genKV(cfg, seed)
		return func(t *tracer) (bench, error) { return setupKV(in, img, t) }, nil
	}
}

// Repetitions inside one run, reported as medians.
const (
	setupReps   = 5
	recoverReps = 7
)

type options struct {
	workload workload
	seed     int64
	window   time.Duration
	trace    bool
	scratch  string // directory for formatting device images
	traceDir string
	commit   string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: kv-write, kv-read or tx-mix")
	seed := fs.Int64("seed", 1, "seed the op streams and preloaded values are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1: also run an instrumented instance and print per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/dev", "directory for transient device-formatting images")
	traceDir := fs.String("tracedir", "perfbench/traces", "directory the traced run writes its spans to")
	commit := fs.String("commit", "unknown", "commit being measured, for the run conditions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		scratch: *scratch, traceDir: *traceDir, commit: *commit}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			o.workload, found = w, true
		}
	}
	if !found || o.window <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload kv-write|kv-read|tx-mix, -seconds > 0 and -trace 0|1\n")
		return 2
	}
	res, err := execute(o, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is one measured instance: its window, recovery time and
// verification result.
type outcome struct {
	w          *window
	recovery   time.Duration
	mismatches []string
}

// execute performs the run and returns its result, writing the report
// lines (run conditions, every metric, failures) to out.
func execute(o options, out io.Writer) (*result, error) {
	wl := o.workload
	setup, err := wl.prepare(o.seed, o.scratch)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Fprintf(out, "conditions: workload=%s seed=%d seconds=%g trace=%v nproc=%d gomaxprocs=%d go=%s commit=%s device=%q\n",
		wl.name, o.seed, o.window.Seconds(), o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), o.commit, deviceDescription)

	rep := newReport(out)
	// Set up several times and keep the last instance.
	var (
		b      bench
		setups []float64
	)
	reps := setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		nb, err := setup(nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < reps-1 {
			if err := nb.close(); err != nil {
				return nil, err
			}
		} else {
			b = nb
		}
	}
	// A traced run splits its time between an untraced and a traced
	// instance, so it takes as long as an untraced run.
	d := o.window
	if o.trace {
		d /= 2
	}
	plain, err := measure(b, d, nil)
	if err != nil {
		return nil, err
	}
	res := &result{}
	rep.tally(res, plain)
	rep.endToEnd(wl, median(setups), plain)

	if o.trace {
		t := newTracer()
		tb, err := setup(t)
		if err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		t.on.Store(true)
		traced, err := measure(tb, d, t)
		if err != nil {
			return nil, err
		}
		rep.tally(res, traced)
		rep.perLayer(wl, t, traced, plain)
		if err := t.writeFile(traceFile(o.traceDir, wl.name)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Metrics = rep.metrics(o.trace)
	res.Correct = res.Failed == 0
	return res, nil
}

// measure runs one window of length d on b, then crashes, recovers,
// verifies and closes it. t, if not nil, is b's tracer, switched off when
// the window ends.
func measure(b bench, d time.Duration, t *tracer) (_ *outcome, err error) {
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	runtime.GC()
	c0 := b.counters()
	start := sampleProc()
	clk := clock{start: start.at, end: start.at.Add(d)}
	prog := make([]progress, maxClients)
	sampled := make(chan []tick)
	go func() { sampled <- sampleTicks(clk, start, prog) }()
	w := b.drive(clk, prog)
	w.ticks = <-sampled
	end := sampleProc()
	if t != nil {
		t.on.Store(false)
	}
	w.layers = b.counters().sub(c0)
	w.proc.start, w.proc.end = start, end
	if err := b.quiesce(); err != nil {
		return nil, fmt.Errorf("quiesce: %w", err)
	}
	var recs []float64
	for i := 0; i < recoverReps; i++ {
		took, err := b.crashAttach()
		if err != nil {
			return nil, err
		}
		recs = append(recs, took.Seconds())
	}
	return &outcome{w: w, recovery: time.Duration(median(recs) * float64(time.Second)), mismatches: b.verify()}, nil
}
