package main

// Measurement plumbing: the counters sampled at both ends of a measured
// window, latency percentiles, process CPU time and host steal.

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"onefile/internal/tm"
)

// Operation types, across all workloads.
const (
	opGet = iota
	opSet
	opIncr
	opScan
	opSmall
	opUpdate
	opRead
	opBatch
	opCross
	numOps
)

var opNames = [numOps]string{"get", "set", "incr", "scan", "small", "update", "read", "batch", "cross"}

// latencies holds one client's per-operation latencies in nanoseconds.
type latencies [numOps][]int64

func (l *latencies) merge(o *latencies) {
	for i := range l {
		l[i] = append(l[i], o[i]...)
	}
}

// quantile returns the nearest-rank q-quantile of sorted, in microseconds.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return float64(sorted[max(i, 0)]) / 1e3
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerCounters is what the program's own counters say at one instant.
// tm carries the device's pwb/pfence/pdrain counts too; cross counts
// committed UpdateCross calls (shard.CrossStats.Cross).
type layerCounters struct {
	tm    tm.Stats
	cross uint64
}

func (a layerCounters) sub(b layerCounters) layerCounters {
	return layerCounters{tm: a.tm.Sub(b.tm), cross: a.cross - b.cross}
}

// procSample is the process and host state at one instant.
type procSample struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	mallocs uint64
	bytes   uint64
	gcCPU   float64 // runtime/metrics GC CPU seconds
	steal   uint64  // host steal ticks, all CPUs
	ticks   uint64  // host ticks, all CPUs
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUMetric)
	steal, ticks := readSteal()
	return procSample{
		at:      time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcCPU:   gcCPUMetric[0].Value.Float64(),
		steal:   steal,
		ticks:   ticks,
	}
}

// readSteal returns the steal and total ticks of the aggregate cpu line of
// /proc/stat, or zeros where it cannot be read.
func readSteal() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user and nice.
	for i, s := range fields[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64) // a malformed field counts as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// maxClients bounds the connections or goroutines a workload drives.
const maxClients = 8

// progress is one client's count of completed operations, on its own
// cache line.
type progress struct {
	n atomic.Uint64
	_ [56]byte
}

// numSlices is how many equal slices a window is cut into. The
// end-to-end rates and latencies are medians over the half of the slices
// with the least host steal (quietSlices), so neither a GC cycle inside
// one slice nor a burst of steal moves them.
const numSlices = 20

// clock is a measured window: its slices and when it ends.
type clock struct{ start, end time.Time }

// slice returns the slice time t falls in; times past the end count in
// the last slice.
func (c clock) slice(t time.Time) int {
	i := int(int64(numSlices) * int64(t.Sub(c.start)) / int64(c.end.Sub(c.start)))
	return min(max(i, 0), numSlices-1)
}

// tick is a sample of process CPU time, completed operations and host
// steal.
type tick struct {
	at           time.Time
	cpu          time.Duration
	ops          uint64
	steal, ticks uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleTicks samples at every slice boundary of c, starting from start.
func sampleTicks(c clock, start procSample, prog []progress) []tick {
	ticks := []tick{{at: start.at, cpu: start.cpu, steal: start.steal, ticks: start.ticks}}
	step := c.end.Sub(c.start) / numSlices
	for k := 1; k <= numSlices; k++ {
		time.Sleep(time.Until(c.start.Add(time.Duration(k) * step)))
		var ops uint64
		for i := range prog {
			ops += prog[i].n.Load()
		}
		steal, total := readSteal()
		ticks = append(ticks, tick{at: time.Now(), cpu: processCPU(), ops: ops, steal: steal, ticks: total})
	}
	return ticks
}

// window is one measured closed-loop interval.
type window struct {
	lat       [numSlices]latencies
	ops       uint64 // completed operations
	attempted uint64
	failed    uint64 // error replies and failed calls
	failures  []string
	proc      struct{ start, end procSample }
	ticks     []tick        // at the slice boundaries
	layers    layerCounters // deltas over the window
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 10 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// record adds one completed operation sent at sent.
func (w *window) record(c clock, kind int, sent time.Time) {
	w.ops++
	l := &w.lat[c.slice(sent)][kind]
	*l = append(*l, int64(time.Since(sent)))
}

// cpuUSPerOp is the whole window's process CPU per completed operation.
func (w *window) cpuUSPerOp() float64 {
	return float64(w.proc.end.cpu-w.proc.start.cpu) / 1e3 / float64(max(w.ops, 1))
}

// quietSlices returns the half of the window's slices with the least
// steal time in /proc/stat, as indices into w.lat.
// Slice i runs from w.ticks[i] to w.ticks[i+1].
func (w *window) quietSlices() []int {
	steal := func(i int) float64 {
		a, b := w.ticks[i], w.ticks[i+1]
		return ratio(b.steal-a.steal, b.ticks-a.ticks)
	}
	idx := make([]int, len(w.ticks)-1)
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(x, y int) int { return cmp.Compare(steal(x), steal(y)) })
	return idx[:max(len(idx)/2, 1)]
}

// sliceRates returns the median over the given slices of the completion
// rate and of process CPU per completed operation.
func (w *window) sliceRates(sl []int) (opsPerS, cpuUSPerOp float64) {
	var rates, cpus []float64
	for _, i := range sl {
		a, b := w.ticks[i], w.ticks[i+1]
		if n := b.ops - a.ops; n > 0 {
			rates = append(rates, float64(n)/b.at.Sub(a.at).Seconds())
			cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/float64(n))
		}
	}
	if len(rates) == 0 {
		return 0, 0
	}
	return median(rates), median(cpus)
}

func (w *window) stealFrac() float64 {
	ticks := w.proc.end.ticks - w.proc.start.ticks
	if ticks == 0 {
		return 0
	}
	return float64(w.proc.end.steal-w.proc.start.steal) / float64(ticks)
}

// sliceP50 returns the median over the given slices of an operation's
// slice median latency, in microseconds.
func (w *window) sliceP50(sl []int, kind int) float64 {
	var p50s []float64
	for _, i := range sl {
		if s := slices.Clone(w.lat[i][kind]); len(s) > 0 {
			slices.Sort(s)
			p50s = append(p50s, quantile(s, 0.50))
		}
	}
	if len(p50s) == 0 {
		return 0
	}
	return median(p50s)
}

// samples returns how many latencies of an operation the window holds.
func (w *window) samples(kind int) int {
	n := 0
	for i := range w.lat {
		n += len(w.lat[i][kind])
	}
	return n
}

// p99 returns an operation's 99th-percentile latency over the whole
// window, in microseconds.
func (w *window) p99(kind int) float64 {
	var all []int64
	for i := range w.lat {
		all = append(all, w.lat[i][kind]...)
	}
	slices.Sort(all)
	return quantile(all, 0.99)
}

// runClients runs client(0..n-1) on their own goroutines and merges their
// windows.
func runClients(n int, client func(i int) *window) *window {
	wins := make([]*window, n)
	var wg sync.WaitGroup
	for i := range wins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wins[i] = client(i)
		}()
	}
	wg.Wait()
	w := &window{}
	for _, cw := range wins {
		w.merge(cw)
	}
	return w
}

// merge adds one client's outcome to the window.
func (w *window) merge(o *window) {
	for i := range w.lat {
		w.lat[i].merge(&o.lat[i])
	}
	w.ops += o.ops
	w.attempted += o.attempted
	w.failed += o.failed
	for _, f := range o.failures {
		if len(w.failures) < 10 {
			w.failures = append(w.failures, f)
		}
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
