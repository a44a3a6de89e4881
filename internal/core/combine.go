package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onefile/internal/obs"
	"onefile/internal/tm"
)

// This file is the group-commit combining layer (DESIGN.md §10). OneFile's
// update path is inherently serial — every committer advances curTx,
// publishes a write-set, runs the apply pass, and on the PTM variants pays
// the pwb/pfence round — so under heavy load the per-commit fixed costs
// dominate long before the op bodies do. Since writers serialise anyway,
// a flat-combining-style group commit gets fence and commit amortisation
// essentially for free: callers submit operations (AsyncUpdate/
// BatchUpdate), and whichever thread holds the combiner slot drains a
// bounded batch of pending submissions and executes them back-to-back
// inside ONE engine transaction — one curTx advance, one apply pass whose
// write-set dedupe collapses repeated writes to hot words into one DCAS
// and one pwb per cache line, and one persistence-fence round per batch
// instead of per operation (Table I's cost becomes ~(2+2·Nw_merged)/batch).
//
// Progress: the combiner executes a bounded batch (combineBatchMax) as an
// ordinary Update transaction, so the transaction itself keeps the paper's
// lock-free/wait-free bounds. A submitter that does not hold the combiner
// slot parks on its future exactly like the contention layer's parked slot
// admission (§9) — and the exit protocol below guarantees every pushed
// submission is picked up by some combiner, while Close() fails the
// pending queue with ErrEngineClosed so no future waits forever.
//
// Execution: every batch, whatever its size and on every variant, runs
// through one function, execBatch. A one-op list first probes the
// small-transaction fast path (fastpath.go); anything else runs as ONE
// engine Update whose body executes the ops in submission order against the
// shared write-set (each reads its predecessors' writes, exactly as if they
// had committed back-to-back), each under runOp's per-op containment — the
// same contract the wait-free aggregator applies to published operations
// (waitfree.go). An op deferred by a batch-caused write-set overflow
// re-enters execBatch alone after the batch commits, so batching never
// turns a fitting transaction into ErrTooManyStores.

// combineBatchMax bounds how many operations one combined transaction
// executes — the constant in the progress argument and the cap on
// write-set growth per transaction.
const combineBatchMax = 256

// combineLinger is the gather window (in boundary yields) used while other
// BatchUpdate submitters are in flight.
const combineLinger = 4

// combReq is one pending submission: the operation, its future, and the
// Treiber-stack link of the submission queue. The future is embedded so a
// queued submission costs a single allocation, and an idle-combiner
// submission none (it comes from the combiner's slab).
//
// A BatchUpdate submission sets group instead of using the per-op future:
// the combiner delivers its result with a plain store into *out (the
// caller's result slot) and counts it down on the group, whose single
// future publishes the whole window at once — per-operation atomics drop
// out of the resolution path.
type combReq struct {
	fn    func(tm.Tx) uint64
	next  *combReq
	group *batchGroup
	out   *tm.BatchResult
	fut   tm.Future
	// start is the submission timestamp (UnixNano), set only when an
	// observability sink is attached; 0 means "do not time this op".
	start int64
}

// batchGroup aggregates the completion of one BatchUpdate window. left
// counts unresolved operations; the future resolves when it reaches zero.
// The group future's Wait is the happens-before edge that publishes every
// member's plain result store to the submitter.
type batchGroup struct {
	left atomic.Int32
	fut  tm.Future
}

// done retires n just-resolved members.
func (g *batchGroup) done(n int32) {
	if g.left.Add(-n) == 0 {
		g.fut.Resolve(0, nil)
	}
}

// batchCall is the pooled per-BatchUpdate record: the request array and its
// completion group. It is dead — and reusable — once the group future has
// been waited on and every result read.
type batchCall struct {
	group batchGroup
	reqs  []combReq
}

// combiner is the engine's group-commit state. head and active are the two
// contended words, each on its own cache line; everything below batchedOps
// is owned by the thread holding active.
type combiner struct {
	_    [64]byte
	head atomic.Pointer[combReq] // submission queue (LIFO; drains reverse)
	_    [56]byte
	// active is the combiner slot: CASed 0→1 by the thread that drains
	// and executes, released after the exit-protocol re-check.
	active atomic.Uint32
	_      [60]byte
	// inflight counts BatchUpdate callers between push and last Wait. The
	// combiner's gather lingers only while someone else is in flight, so
	// drains span concurrent submitters without ever delaying a solo one.
	inflight   atomic.Int32
	_          [60]byte
	batches    atomic.Uint64 // combined transactions executed
	batchedOps atomic.Uint64 // operations executed through them

	// Combiner-private (guarded by active): the drain buffer and, on the
	// lock-free engines, the reused op list (nil on the wait-free ones).
	scratch []*combReq
	list    *opList
	// reqSlab hands out idle-combiner submissions in blocks, so the
	// allocator is hit once per block instead of once per submission. A
	// slab entry is never reused: its future stays the caller's.
	reqSlab []combReq
	reqIdx  int

	// reqPool recycles BatchUpdate's per-call records (request array +
	// completion group). A call is dead once its group future has been
	// waited on: the combiner's last touch is that Resolve, and the
	// waiter's atomic read of the resolved state is the happens-before
	// edge that makes reuse safe.
	reqPool sync.Pool
}

// opOut is one operation's outcome in one execution of an op list.
type opOut struct {
	res      uint64
	fail     any  // the body's panic value; nil on success
	deferred bool // batch-caused overflow: re-run the op alone
}

// opList is one combined transaction's operations and the outcome record
// of every execution of its body. The lock-free engines run the body only
// on the combiner goroutine, one execution after another (serial), so they
// reuse one list batch after batch and every execution reuses one record.
// A wait-free engine may also run the body on helper goroutines (§III-E) —
// even after the transaction committed, as a doomed stale aggregate — so
// each of its batches gets a fresh list that is never written again once
// published: the body reads only fns, never the combiner's scratch buffer
// or the pooled requests. Its executions number themselves with one atomic
// add and publish their records with a CAS, so a helper never waits on
// another execution of the same body.
type opList struct {
	fns    []func(tm.Tx) uint64
	body   func(tm.Tx) uint64 // l.exec, bound once
	serial bool
	execs  atomic.Uint64         // executions started (wait-free lists)
	first  opRun                 // execution 1's record (every execution's, if serial)
	more   atomic.Pointer[opRun] // the records of executions 2, 3, ..., newest first
}

// opRun is the outcome record of the k-th execution of an op list.
type opRun struct {
	outs []opOut
	k    uint64
	next *opRun
}

func newOpList(serial bool) *opList {
	l := &opList{serial: serial}
	l.body = l.exec
	return l
}

// exec is the combined transaction's body: every operation in turn, under
// runOp's containment, recording into this execution's own outcome record.
// Its return value names that record, so the engine's committed return
// value selects the execution whose effects actually committed.
func (l *opList) exec(tx tm.Tx) uint64 {
	u := tx.(*uTx)
	u.s.ws.beginUndo()
	list := u.s.ws.mark()
	r, k := &l.first, uint64(1)
	if !l.serial {
		k = l.execs.Add(1)
	}
	if k == 1 {
		if cap(r.outs) < len(l.fns) {
			r.outs = make([]opOut, len(l.fns))
		}
		r.outs = r.outs[:len(l.fns)]
	} else {
		r = &opRun{outs: make([]opOut, len(l.fns)), k: k}
		for {
			r.next = l.more.Load()
			if l.more.CompareAndSwap(r.next, r) {
				break
			}
		}
	}
	for i, fn := range l.fns {
		r.outs[i].res, r.outs[i].fail, r.outs[i].deferred = runOp(u, fn, list, u.s.ws.mark())
	}
	return k
}

// outcome returns the record of the execution whose body returned k. The
// engine's commit orders that execution's writes before the caller's read.
func (l *opList) outcome(k uint64) []opOut {
	if k == 1 {
		return l.first.outs
	}
	r := l.more.Load()
	for r.k != k {
		r = r.next
	}
	return r.outs
}

// runOp is the per-operation containment contract shared by the combiner's
// op lists and the wait-free aggregate (DESIGN.md §10). It runs fn inside a
// transaction body that executes a list of operations; list marks the
// write-set at the list's start and op at the operation's start (before
// any bookkeeping stores the caller makes for it, such as the aggregate's
// result-word reservation).
//
//   - A body panic rolls the op's stores back and fails the op with the
//     panic value (failure).
//   - abortSignal is the whole transaction's concern: it propagates, and
//     the transaction retries.
//   - tm.ErrTooManyStores while the write-set holds entries that earlier
//     ops of the same list added (op.n > list.n) is the batch's overflow,
//     not the op's: everything since op is rolled back and the op deferred
//     to a later, smaller transaction. Testing against the list's start,
//     not against an empty write-set, matters inside a wait-free combined
//     batch, whose aggregate has stored result words before the list.
//   - Any other tm.ErrTooManyStores is the op's own, and fails it.
//
// Panics from outside the body (device failures, crash injection) never
// pass through here: they propagate from the engine's commit machinery.
func runOp(u *uTx, fn func(tm.Tx) uint64, list, op wsMark) (res uint64, failure any, deferred bool) {
	m := u.s.ws.mark()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, isAbort := r.(abortSignal); isAbort {
			panic(r)
		}
		if err, ok := r.(error); ok && errors.Is(err, tm.ErrTooManyStores) && op.n > list.n {
			u.s.ws.rollbackTo(op)
			deferred = true
			return
		}
		u.s.ws.rollbackTo(m)
		failure = r
	}()
	return fn(u), nil, false
}

var _ tm.Combining = (*Engine)(nil)

// AsyncUpdate implements tm.Combining. With an idle combiner the caller
// takes the combiner slot and executes fn itself as a one-op batch — the
// future is resolved on return, and a solo submitter never waits for a
// batch to form; otherwise the submission is queued for the active
// combiner and the caller returns immediately.
func (e *Engine) AsyncUpdate(fn func(tm.Tx) uint64) *tm.Future {
	if e.closed.Load() {
		fut := new(tm.Future)
		fut.Resolve(0, tm.ErrEngineClosed)
		return fut
	}
	c := &e.comb
	o := e.obsv.Load()
	if c.head.Load() == nil && c.active.CompareAndSwap(0, 1) {
		var start time.Time
		if o != nil {
			start = time.Now()
		}
		if c.reqIdx == len(c.reqSlab) {
			c.reqSlab = make([]combReq, 64)
			c.reqIdx = 0
		}
		r := &c.reqSlab[c.reqIdx]
		c.reqIdx++
		r.fn = fn
		one := [1]*combReq{r}
		e.execBatch(one[:])
		r.fn = nil // the slab outlives the op; do not pin its closure
		c.active.Store(0)
		if o != nil {
			o.SoloLat.RecordSince(start)
		}
		e.drainLoop()
		return &r.fut
	}
	r := &combReq{fn: fn}
	if o != nil {
		r.start = time.Now().UnixNano()
	}
	e.pushReq(r)
	e.drainLoop()
	return &r.fut
}

// BatchUpdate implements tm.Combining: submit every fn, combine, wait for
// all. The submissions land on the queue before any combining starts, so a
// single caller still gets real batches (this is the deterministic entry
// point the crashcheck combined sweep and the batch benchmark use).
func (e *Engine) BatchUpdate(fns []func(tm.Tx) uint64) []tm.BatchResult {
	out := make([]tm.BatchResult, len(fns))
	if len(fns) == 0 {
		return out
	}
	if e.closed.Load() {
		for i := range out {
			out[i].Err = tm.ErrEngineClosed
		}
		return out
	}
	call, _ := e.comb.reqPool.Get().(*batchCall)
	if call != nil && cap(call.reqs) >= len(fns) {
		call.reqs = call.reqs[:len(fns)]
	} else {
		call = &batchCall{reqs: make([]combReq, len(fns))}
	}
	call.group.left.Store(int32(len(fns)))
	call.group.fut.Reset()
	reqs := call.reqs
	var submitNs int64
	if e.obsv.Load() != nil {
		submitNs = time.Now().UnixNano()
	}
	// Link the batch into one chain (last submission on top, matching the
	// LIFO queue's order) and publish it with a single CAS.
	for i := range reqs {
		reqs[i] = combReq{fn: fns[i], group: &call.group, out: &out[i], start: submitNs}
		if i > 0 {
			reqs[i].next = &reqs[i-1]
		}
	}
	e.comb.inflight.Add(1)
	e.pushChain(&reqs[len(reqs)-1], &reqs[0])
	e.drainLoop()
	call.group.fut.Wait()
	e.comb.inflight.Add(-1)
	e.comb.reqPool.Put(call)
	return out
}

// pushReq publishes r on the submission queue.
func (e *Engine) pushReq(r *combReq) { e.pushChain(r, r) }

// pushChain publishes a pre-linked chain of submissions (first is the top)
// with one CAS.
func (e *Engine) pushChain(first, last *combReq) {
	for {
		h := e.comb.head.Load()
		last.next = h
		if e.comb.head.CompareAndSwap(h, first) {
			return
		}
	}
}

// drainLoop is the combiner admission and exit protocol: while the queue is
// non-empty, try to take the combiner slot and run a session. A failed CAS
// means another thread holds the slot — and every holder re-runs this check
// after releasing, so a submission pushed at any point is picked up by
// some combiner (the standard flat-combining no-strand argument).
func (e *Engine) drainLoop() {
	for e.comb.head.Load() != nil {
		if !e.comb.active.CompareAndSwap(0, 1) {
			return
		}
		e.combineSession()
		e.comb.active.Store(0)
	}
}

// combineSession drains and executes until the queue is empty, holding the
// combiner slot. Each gathered batch runs in chunks of combineBatchMax, so
// one combined transaction's work stays bounded.
func (e *Engine) combineSession() {
	for {
		batch := e.gather()
		if len(batch) == 0 {
			return
		}
		for start := 0; start < len(batch); start += combineBatchMax {
			end := min(start+combineBatchMax, len(batch))
			e.execBatch(batch[start:end])
		}
	}
}

// gather drains the queue into the combiner's scratch buffer in submission
// order. While other BatchUpdate callers are in flight it lingers up to
// combineLinger boundary yields for their submissions to land, so the
// drain spans their windows; otherwise it never waits, so a solo submitter
// never waits for a batch that is not forming.
func (e *Engine) gather() []*combReq {
	buf := e.drainInto(e.comb.scratch[:0])
	if len(buf) > 0 && e.comb.inflight.Load() > 1 {
		for pass := 0; pass < combineLinger && len(buf) < combineBatchMax; pass++ {
			runtime.Gosched()
			n := len(buf)
			buf = e.drainInto(buf)
			if len(buf) == n && pass > 0 {
				break // a quiet yield after a first full one: queue is spent
			}
		}
	}
	e.comb.scratch = buf
	if len(buf) > 0 {
		if o := e.obsv.Load(); o != nil {
			o.DrainSpan.Record(uint64(len(buf)))
			o.Rec.Record(obs.EvBatchDrain, -1, uint64(len(buf)))
		}
	}
	return buf
}

// drainInto atomically claims the whole queue and appends it to buf in
// submission order (the stack is LIFO, so the claimed list is reversed in
// place). Claiming by Swap makes ownership exclusive: every submission is
// executed exactly once, by exactly one combiner.
func (e *Engine) drainInto(buf []*combReq) []*combReq {
	h := e.comb.head.Swap(nil)
	k := len(buf)
	for r := h; r != nil; r = r.next {
		buf = append(buf, r)
	}
	for i, j := k, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// execBatch is the combiner's one execution function: it runs a bounded
// list of operations, holding the combiner slot, and resolves every
// future. A one-op list probes the small-transaction fast path first;
// otherwise — or when the probe falls back — the list runs as one engine
// Update under runOp's containment, and ops deferred by a batch-caused
// overflow re-enter execBatch alone once the rest are resolved.
//
// ErrEngineClosed (the engine shut down between the submission and the
// combine) fails every op of the list. Any other panic escaping the engine
// comes from the commit machinery, not from an op body — there are none in
// normal operation, but device failures and the crash-simulation harness
// raise them — and propagates with the futures unresolved, exactly like a
// process death: the write may already have committed, so failing the op
// would acknowledge a committed write as failed.
func (e *Engine) execBatch(batch []*combReq) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if err, ok := r.(error); ok && errors.Is(err, tm.ErrEngineClosed) {
			for _, q := range batch {
				resolveReq(q, 0, tm.ErrEngineClosed)
			}
			return
		}
		panic(r)
	}()
	c := &e.comb
	var one [1]opOut
	out := one[:]
	fast := false
	if len(batch) == 1 {
		one[0].res, fast = e.fastOne(batch[0].fn)
	}
	if !fast {
		l := c.list
		if l == nil {
			l = newOpList(false)
		}
		if cap(l.fns) < len(batch) {
			l.fns = make([]func(tm.Tx) uint64, len(batch))
		}
		l.fns = l.fns[:len(batch)]
		for i, q := range batch {
			l.fns[i] = q.fn
		}
		out = l.outcome(e.Update(l.body))
	}
	// The counters are only written with the combiner slot held, so a
	// plain load+store (no RMW) is enough; Stats reads stay race-free.
	c.batches.Store(c.batches.Load() + 1)
	c.batchedOps.Store(c.batchedOps.Load() + uint64(len(batch)))
	if o := e.obsv.Load(); o != nil {
		o.BatchSize.Record(uint64(len(batch)))
		// Submit→resolve latency, timestamped here just before resolution
		// (one clock read per batch, not per op).
		now := time.Now().UnixNano()
		for _, q := range batch {
			if q.start != 0 {
				d := now - q.start
				if d < 0 {
					d = 0 // wall-clock step; count the op, lose the latency
				}
				o.BatchLat.Record(uint64(d))
			}
		}
	}
	var deferred []*combReq
	// Group members arrive as contiguous runs (a submitter pushes its next
	// window only after the previous one resolved), so their countdown is
	// amortised: plain result stores per op, one Add per run.
	var g *batchGroup
	var gn int32
	flush := func() {
		if g != nil {
			g.done(gn)
		}
		g, gn = nil, 0
	}
	for i, q := range batch {
		if out[i].deferred {
			deferred = append(deferred, q)
			continue
		}
		res, err := out[i].res, error(nil)
		if out[i].fail != nil {
			err = tm.PanicError(out[i].fail)
		}
		if q.group != nil {
			*q.out = tm.BatchResult{Val: res, Err: err}
			if q.group != g {
				flush()
				g = q.group
			}
			gn++
			continue
		}
		flush()
		q.fut.Resolve(res, err)
	}
	flush()
	// Deferred ops re-enter only now: the lock-free engines' reused op
	// list (out's backing store) is no longer needed.
	for _, q := range deferred {
		one := [1]*combReq{q}
		e.execBatch(one[:])
	}
}

// fastOne probes the small-transaction fast path for a one-op list and
// reports whether the op committed there. On false nothing happened and the
// op runs through the full path (a panicking body, too: the probe leaves
// its containment to runOp).
func (e *Engine) fastOne(fn func(tm.Tx) uint64) (uint64, bool) {
	s := e.acquire()
	defer e.release(s)
	res, st := e.fastAttempt(s, fn)
	return res, st == fastCommitted
}

// resolveReq delivers one submission's result on a cold path (close):
// group members store plainly and count down one, AsyncUpdate submissions
// resolve their own future.
func resolveReq(q *combReq, res uint64, err error) {
	if q.group != nil {
		*q.out = tm.BatchResult{Val: res, Err: err}
		q.group.done(1)
		return
	}
	q.fut.Resolve(res, err)
}

// failPending fails every queued submission (Close): parked submitters wake
// with err. An active combiner's already-claimed batch either commits
// normally or resolves with ErrEngineClosed through execBatch's recover.
func (e *Engine) failPending(err error) {
	for r := e.comb.head.Swap(nil); r != nil; r = r.next {
		resolveReq(r, 0, err)
	}
}
