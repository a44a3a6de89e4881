package main

// The traced run's instrumentation. Every span is recorded from this
// package, around calls into a layer's public functions: the kvserver
// Backend handed to kvserver.NewServer, the pmem.Device handed to the
// engines, and the benchmark's own calls into core, tm and shard. Nothing
// inside the program is instrumented.
//
// Every span is folded into per-kind totals (count and busy time), which
// the per-layer metrics are computed from. The first maxKeptSpans spans
// are also kept whole in memory and written out as JSON lines when the run
// ends, so a trace file stays bounded however long the run is.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

type spanKind uint8

const (
	spanKVAsync spanKind = iota // kvserver.Backend.Async
	spanKVRead                  // kvserver.Backend.Read
	spanKVBody                  // one execution of a kvserver write body
	spanUpdate                  // core.Engine.Update
	spanRead                    // core.Engine.Read
	spanBody                    // one execution of an Update transfer body
	spanSmall                   // tm.UpdateSmall
	spanBatch                   // tm.Batch
	spanCross                   // shard.Store.UpdateCross
	spanFlush                   // pmem.Device.Flush / FlushPair / FlushPairLine
	spanFence                   // pmem.Device.Fence
	spanDrain                   // pmem.Device.Drain
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"kvserver.async", "kvserver.read", "kvserver.body",
	"core.update", "core.read", "core.body",
	"fastpath.small", "combine.batch", "shard.cross",
	"pmem.flush", "pmem.fence", "pmem.drain",
}

const maxKeptSpans = 1 << 17

// span is one timed call. Spans caused by another (a body run by a
// submission) name it as parent; device spans have no parent because the
// device is called from inside the engine, on whichever goroutine commits.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type rawSpan struct {
	id, parent uint64
	kind       spanKind
	start, end int64
}

type kindTotal struct {
	count atomic.Int64
	ns    atomic.Int64
	_     [48]byte // keep kinds on separate cache lines
}

// tracer records spans once on is set. A nil *tracer records nothing.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	kept   []rawSpan
	nKept  atomic.Int64
	totals [numSpanKinds]kindTotal
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), kept: make([]rawSpan, maxKeptSpans)}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record closes a span that began at start (a value of now()).
func (t *tracer) record(kind spanKind, id, parent uint64, start int64) {
	end := t.now()
	tot := &t.totals[kind]
	tot.count.Add(1)
	tot.ns.Add(end - start)
	if i := t.nKept.Add(1) - 1; i < maxKeptSpans {
		t.kept[i] = rawSpan{id: id, parent: parent, kind: kind, start: start, end: end}
	}
}

// count and meanUS read a kind's totals.
func (t *tracer) count(k spanKind) int64 { return t.totals[k].count.Load() }

func (t *tracer) busyUS(k spanKind) float64 { return float64(t.totals[k].ns.Load()) / 1e3 }

func (t *tracer) meanUS(k spanKind) float64 {
	if n := t.count(k); n > 0 {
		return t.busyUS(k) / float64(n)
	}
	return 0
}

// writeFile writes the kept spans as JSON lines to path.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.nKept.Load(), maxKeptSpans)
	for _, s := range t.kept[:n] {
		if err := enc.Encode(span{ID: s.id, Parent: s.parent, Name: spanNames[s.kind], Start: s.start, End: s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced runs fn as a span of kind when t is active.
func traced[T any](t *tracer, kind spanKind, fn func() T) T {
	if !t.active() {
		return fn()
	}
	id, start := t.newID(), t.now()
	v := fn()
	t.record(kind, id, 0, start)
	return v
}

// tracedBody wraps a transaction body so each execution is a span of kind
// whose parent is the submitting call's span.
func tracedBody(t *tracer, kind spanKind, parent uint64, fn func(tm.Tx) uint64) func(tm.Tx) uint64 {
	return func(tx tm.Tx) uint64 {
		start := t.now()
		v := fn(tx)
		t.record(kind, t.newID(), parent, start)
		return v
	}
}

// tracedBackend is the kvserver.Backend handed to kvserver.NewServer in a
// traced run: it times Async (submission, including a solo commit run on
// the caller), Read, and every execution of a write body.
type tracedBackend struct {
	kvserver.Backend
	t *tracer
}

func (b tracedBackend) Async(shard int, fn func(tm.Tx) uint64) *tm.Future {
	if !b.t.active() {
		return b.Backend.Async(shard, fn)
	}
	id, start := b.t.newID(), b.t.now()
	f := b.Backend.Async(shard, tracedBody(b.t, spanKVBody, id, fn))
	b.t.record(spanKVAsync, id, 0, start)
	return f
}

func (b tracedBackend) Read(shard int, fn func(tm.Tx) uint64) uint64 {
	return traced(b.t, spanKVRead, func() uint64 { return b.Backend.Read(shard, fn) })
}

// tracedDevice is the pmem.Device handed to the engines in a traced run:
// it times every pwb call, fence and drain.
type tracedDevice struct {
	pmem.Device
	t *tracer
}

func (d tracedDevice) Flush(slot, off, n int) {
	if !d.t.active() {
		d.Device.Flush(slot, off, n)
		return
	}
	start := d.t.now()
	d.Device.Flush(slot, off, n)
	d.t.record(spanFlush, d.t.newID(), 0, start)
}

func (d tracedDevice) FlushPair(slot, idx int, val, seq uint64) {
	if !d.t.active() {
		d.Device.FlushPair(slot, idx, val, seq)
		return
	}
	start := d.t.now()
	d.Device.FlushPair(slot, idx, val, seq)
	d.t.record(spanFlush, d.t.newID(), 0, start)
}

func (d tracedDevice) FlushPairLine(slot int, n int, idx *[pmem.PairLineWords]int, vals, seqs *[pmem.PairLineWords]uint64) {
	if !d.t.active() {
		d.Device.FlushPairLine(slot, n, idx, vals, seqs)
		return
	}
	start := d.t.now()
	d.Device.FlushPairLine(slot, n, idx, vals, seqs)
	d.t.record(spanFlush, d.t.newID(), 0, start)
}

func (d tracedDevice) Fence(slot int) {
	if !d.t.active() {
		d.Device.Fence(slot)
		return
	}
	start := d.t.now()
	d.Device.Fence(slot)
	d.t.record(spanFence, d.t.newID(), 0, start)
}

func (d tracedDevice) Drain(slot int) {
	if !d.t.active() {
		d.Device.Drain(slot)
		return
	}
	start := d.t.now()
	d.Device.Drain(slot)
	d.t.record(spanDrain, d.t.newID(), 0, start)
}

// wrapDevice returns dev itself for an untraced run and a tracedDevice
// otherwise, so untraced runs pay no extra call.
func wrapDevice(dev pmem.Device, t *tracer) pmem.Device {
	if t == nil {
		return dev
	}
	return tracedDevice{Device: dev, t: t}
}

func traceFile(dir, workload string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.jsonl", workload))
}
