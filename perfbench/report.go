package main

// Metric computation and the report lines printed before the result.

import (
	"fmt"
	"io"
)

type namedMetric struct {
	name string
	metric
}

type report struct {
	out    io.Writer
	e2e    []namedMetric
	layers []namedMetric
}

func newReport(out io.Writer) *report { return &report{out: out} }

func (r *report) line(format string, args ...any) { fmt.Fprintf(r.out, format+"\n", args...) }

func (r *report) addE2E(name, unit string, v float64) {
	r.e2e = append(r.e2e, namedMetric{name, metric{v, unit}})
	r.line("metric %s %v %s", name, v, unit)
}

func (r *report) addLayer(name, unit string, v float64) {
	r.layers = append(r.layers, namedMetric{name, metric{v, unit}})
	r.line("layer %s %v %s", name, v, unit)
}

// metrics returns the set the result carries: per-layer for a traced run,
// end-to-end otherwise.
func (r *report) metrics(traced bool) map[string]metric {
	set := r.e2e
	if traced {
		set = r.layers
	}
	m := make(map[string]metric, len(set))
	for _, nm := range set {
		m[nm.name] = nm.metric
	}
	return m
}

// tally adds an instance's attempts and failures to the result and prints
// every failure.
func (r *report) tally(res *result, o *outcome) {
	res.Attempted += o.w.attempted
	res.Failed += o.w.failed + uint64(len(o.mismatches))
	for _, f := range o.w.failures {
		r.line("failure: %s", f)
	}
	for i, m := range o.mismatches {
		if i == 10 {
			r.line("mismatch: ... %d more", len(o.mismatches)-i)
			break
		}
		r.line("mismatch: %s", m)
	}
}

// endToEnd computes the end-to-end metrics from the untraced instance and
// prints them together with the per-operation medians and persistence
// counts they summarise. Rates and medians come from the half of the
// slices with the least host steal.
func (r *report) endToEnd(wl workload, setupS float64, o *outcome) {
	w := o.w
	quiet := w.quietSlices()
	opsPerS, cpuPerOp := w.sliceRates(quiet)
	r.addE2E("setup_s", "s", setupS)
	r.addE2E("ops_per_s", "1/s", opsPerS)
	r.addE2E("cpu_us_per_op", "us", cpuPerOp)
	r.addE2E("read_p50_us", "us", w.sliceP50(quiet, wl.readOp))
	r.addE2E("write_p50_us", "us", w.sliceP50(quiet, wl.writeOp))
	r.addE2E("recovery_s", "s", o.recovery.Seconds())
	for op := range numOps {
		if n := w.samples(op); n > 0 {
			r.line("report %s_p50_us %v us (%d samples)", opNames[op], w.sliceP50(quiet, op), n)
		}
	}
	errs := w.failed + uint64(len(o.mismatches))
	r.line("report error_rate %v frac (%d of %d attempted)", ratio(errs, w.attempted), errs, w.attempted)
	s := w.layers.tm
	r.line("report pmem.pwb_per_commit %v", ratio(s.Pwb, s.Commits))
	r.line("report pmem.pfence_per_commit %v", ratio(s.Pfence, s.Commits))
	r.line("report pmem.pdrain_per_commit %v", ratio(s.Pdrain, s.Commits))
	r.line("report host.steal_frac %v", w.stealFrac())
	// Per-slice CPU per op and host steal, to see the host's noise.
	var cpus, steals []string
	for i := 1; i < len(w.ticks); i++ {
		a, b := w.ticks[i-1], w.ticks[i]
		cpus = append(cpus, fmt.Sprintf("%.2f", float64(b.cpu-a.cpu)/1e3/float64(max(b.ops-a.ops, 1))))
		steals = append(steals, fmt.Sprintf("%.2f", ratio(b.steal-a.steal, b.ticks-a.ticks)))
	}
	r.line("report slices cpu_us_per_op %v steal_frac %v", cpus, steals)
}

// perLayer computes the per-layer metrics from the traced instance tr and
// its tracer, with the untraced instance plain for tails and overhead.
// Metrics of a layer the workload does not run read 0.
func (r *report) perLayer(wl workload, t *tracer, tr, plain *outcome) {
	w := tr.w
	ops := float64(max(w.ops, 1))
	s := w.layers.tm
	cpu := w.cpuUSPerOp()

	r.addLayer("kvserver.async_us", "us", t.meanUS(spanKVAsync))
	r.addLayer("kvserver.read_us", "us", t.meanUS(spanKVRead))
	r.addLayer("kvserver.body_us", "us", t.meanUS(spanKVBody))
	r.addLayer("kvserver.body_runs_per_write", "ratio", ratio(uint64(t.count(spanKVBody)), uint64(t.count(spanKVAsync))))
	outside := 0.0
	if t.count(spanKVAsync)+t.count(spanKVRead) > 0 {
		outside = cpu - (t.busyUS(spanKVAsync)+t.busyUS(spanKVRead))/ops
	}
	r.addLayer("kvserver.outside_us_per_op", "us", outside)

	r.addLayer("combine.ops_per_batch", "ratio", ratio(s.BatchedOps, s.Batches))
	r.addLayer("combine.batch_us", "us", t.meanUS(spanBatch))

	r.addLayer("core.update_us", "us", t.meanUS(spanUpdate))
	r.addLayer("core.read_us", "us", t.meanUS(spanRead))
	r.addLayer("core.body_runs_per_update", "ratio", ratio(uint64(t.count(spanBody)), uint64(t.count(spanUpdate))))
	r.addLayer("core.aborts_per_commit", "ratio", ratio(s.Aborts, s.Commits))
	r.addLayer("core.helps_per_commit", "ratio", ratio(s.Helps, s.Commits))
	r.addLayer("core.aggregated_per_commit", "ratio", ratio(s.AggregatedOp, s.Commits))
	r.addLayer("core.read_aborts_per_read", "ratio", ratio(s.ReadAborts, s.ReadCommits))

	r.addLayer("fastpath.small_us", "us", t.meanUS(spanSmall))
	r.addLayer("fastpath.commit_frac", "frac", ratio(s.FastCommits, s.Commits))
	r.addLayer("fastpath.fallbacks_per_attempt", "ratio", ratio(s.FastFallbacks, s.FastAttempts))

	r.addLayer("pmem.pwb_per_commit", "ratio", ratio(s.Pwb, s.Commits))
	r.addLayer("pmem.pfence_per_commit", "ratio", ratio(s.Pfence, s.Commits))
	r.addLayer("pmem.pdrain_per_commit", "ratio", ratio(s.Pdrain, s.Commits))
	r.addLayer("pmem.flush_us", "us", t.meanUS(spanFlush))
	r.addLayer("pmem.fence_us", "us", t.meanUS(spanFence))
	r.addLayer("pmem.drain_us", "us", t.meanUS(spanDrain))
	r.addLayer("pmem.busy_us_per_op", "us", (t.busyUS(spanFlush)+t.busyUS(spanFence)+t.busyUS(spanDrain))/ops)

	r.addLayer("shard.cross_us", "us", t.meanUS(spanCross))
	r.addLayer("shard.cross_commits", "count", float64(w.layers.cross))

	pe, ps := w.proc.end, w.proc.start
	r.addLayer("go.allocs_per_op", "count", float64(pe.mallocs-ps.mallocs)/ops)
	r.addLayer("go.bytes_per_op", "B", float64(pe.bytes-ps.bytes)/ops)
	gcFrac := 0.0
	if cpuS := (pe.cpu - ps.cpu).Seconds(); cpuS > 0 {
		gcFrac = (pe.gcCPU - ps.gcCPU) / cpuS
	}
	r.addLayer("go.gc_cpu_frac", "frac", gcFrac)

	quiet := plain.w.quietSlices()
	for op := range numOps {
		r.addLayer("op."+opNames[op]+"_p50_us", "us", plain.w.sliceP50(quiet, op))
		r.addLayer("tail."+opNames[op]+"_p99_us", "us", plain.w.p99(op))
		r.addLayer("tail."+opNames[op]+"_samples", "count", float64(plain.w.samples(op)))
	}

	r.addLayer("host.steal_frac", "frac", plain.w.stealFrac())
	r.addLayer("trace.overhead_frac", "frac", cpu/plain.w.cpuUSPerOp()-1)
}
