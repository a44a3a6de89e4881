// Package core implements OneFile, the wait-free persistent transactional
// memory of the paper, in its four variants:
//
//   - NewLF: the lock-free software transactional memory (volatile),
//   - NewWF: the wait-free STM (volatile),
//   - NewPersistentLF: the lock-free PTM on an emulated NVM device,
//   - NewPersistentWF: the wait-free PTM.
//
// OneFile is a redo-log, word-based TM with no read-set. All update
// transactions serialize on a single word, curTx, that packs a
// monotonically increasing sequence number with the committing thread
// slot's index. Each slot exposes its write-set (and, in the persistent
// variants, keeps it in NVM), so that any thread can help apply the
// currently committed transaction — one seq-guarded DCAS per written word —
// which yields lock-free progress; the wait-free variants additionally
// publish whole operations so that helping threads execute them on the
// caller's behalf (§III-E).
//
// Hot-path disciplines (beyond the paper, for the Go platform):
//
//   - Pair recycling. The emulated DCAS (package dcas) swings a pointer to
//     an immutable {value, sequence} Pair, which in the naive form
//     allocates one Pair per applied word. Every transaction announces its
//     start sequence as a hazard era (package he); a Pair replaced at era r
//     is pushed to the replacing slot's retire queue and recycled once no
//     announced era is ≤ r — any thread still holding the Pair announced an
//     era no later than the replacement (see DESIGN.md §2). Steady-state
//     update transactions therefore allocate no Pairs.
//   - Flush coalescing. The apply phase persists one pwb per modified
//     pair-region cache line (4 TM words) instead of one per word — the
//     paper's §IV accounting.
//   - False-sharing avoidance. Contended per-slot words (claim flag,
//     request/numStores, operation slot, stats) each sit on their own
//     cache line, as do curTx and the claim hint.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"onefile/internal/dcas"
	"onefile/internal/he"
	"onefile/internal/pmem"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

// Transaction identifiers pack seq<<tidBits | tid (§III-A).
const (
	tidBits = 10
	tidMask = (1 << tidBits) - 1
)

func makeTx(seq uint64, tid int) uint64 { return seq<<tidBits | uint64(tid) }
func seqOf(txid uint64) uint64          { return txid >> tidBits }
func tidOf(txid uint64) int             { return int(txid & tidMask) }

// Device raw-region layout (persistent variants).
const (
	hdrWords = pmem.LineWords // raw words reserved for the header
	hdrMagic = 0              // raw offset of the magic word
	magicVal = 0x0F11E_60_0001
)

// Pair-pool tuning.
const (
	// poolScanEvery is how many retired pairs a slot accumulates before it
	// runs a reclamation scan (one bounded pass over the era array).
	poolScanEvery = 64
	// poolMaxFree caps a slot's free list; overflow is left to the GC.
	poolMaxFree = 8192
)

// abortSignal is the panic value used to unwind an aborted transaction body
// (the paper's AbortedTxException). It never escapes the engine.
type abortSignal struct{}

// pairPool recycles the dcas.Pairs a slot's apply phase replaces. All
// fields are owner-private. Retired pairs carry the era (curTx sequence) at
// which they were unlinked; eras are appended in non-decreasing order, so
// reclamation pops the prefix older than the minimum announced era.
type pairPool struct {
	free      []*dcas.Pair
	retired   []*dcas.Pair
	eras      []uint64
	sinceScan int
}

// slotStats are one slot's operation counters: owner-written (uncontended),
// summed by Engine.Stats. Exactly one cache line.
type slotStats struct {
	commits     atomic.Uint64
	aborts      atomic.Uint64
	readCommits atomic.Uint64
	readAborts  atomic.Uint64
	helps       atomic.Uint64
	cas         atomic.Uint64
	dcas        atomic.Uint64
	aggregated  atomic.Uint64
}

// slot is one thread slot: registration state, the slot's write-set/redo
// log, and the wait-free operation publication point. Owner-private fields
// come first; each shared-hot atomic below sits on its own cache line so
// helpers polling one slot never invalidate a neighbour's.
type slot struct {
	id int

	// request holds the slot's transaction identifier while its committed
	// write-set still needs applying ("open"), and that identifier plus
	// one once applied ("closed"). §III-A.
	request *atomic.Uint64
	logNum  *atomic.Uint64  // shared numStores
	logEnt  []atomic.Uint64 // shared (address, value) entry pairs
	logOff  int             // device raw offset of the slot's log region; -1 when volatile

	ws      writeSet
	helpBuf []uint64 // scratch for copying another slot's write-set

	pool       pairPool
	replaced   []*dcas.Pair // pairs unlinked by the current apply phase
	flushAddrs []uint64     // scratch for sorting dirty words by cache line
	// flushLine is the scratch line handed to Device.FlushPairLine: arrays
	// passed through the interface escape, so stack copies would cost
	// three heap allocations per flushed line.
	flushLine lineBuf

	// releases counts this slot's releases and drives the boundary yield
	// (release). Written only by the claimant, before the claim clears.
	releases uint32

	// Reusable transaction handles (their address escapes through the
	// tm.Tx interface, so per-transaction values would heap-allocate).
	utx uTx
	rtx rTx
	ftx fTx

	opTag uint64 // owner-private monotonic tag for this slot's ops

	_ [64]byte
	// claimed is CASed by every acquiring thread.
	claimed atomic.Uint32
	_       [60]byte
	// helpTicket deduplicates helpers of this slot's committed
	// transactions: it holds the highest txid whose apply phase some
	// thread has claimed (the owner claims at commit with a store, helpers
	// by CAS; see claimHelp). Values only grow.
	helpTicket atomic.Uint64
	_          [56]byte
	// Wait-free operation publication (§III-E), polled by every aggregate.
	opSlot atomic.Pointer[opDesc]
	_      [56]byte
	// localReq backs request/logNum for the volatile engines; helpers and
	// pending() poll it from every thread.
	localReq [2]atomic.Uint64
	_        [48]byte
	st       slotStats
	_        [64]byte
	// fst are the small-transaction fast-path counters (fastpath.go),
	// owner-written like st and padded onto their own line.
	fst fastStats
	_   [24]byte
}

// opDesc is a published wait-free operation: the Go closure standing in for
// the paper's std::function, plus the monotonic tag used for exactly-once
// execution and the hazard-era lifetime bookkeeping of §IV-B.
type opDesc struct {
	fn    func(tm.Tx) uint64
	tag   uint64
	birth uint64 // curTx sequence when published (hazard era birth)

	// fail parks the panic value of a terminally failed execution until
	// the submitter re-raises it (updateWF). Racing executions may each
	// store one — a body can panic differently per run — but any stored
	// value is the genuine outcome of one execution, and the store
	// sequenced before the commit that tagged opFailBit is visible to the
	// submitter through that commit's apply phase.
	fail atomic.Pointer[any]

	// reclaimed is set by the hazard-era free callback. Under Go's GC the
	// object stays valid, so this flag turns what would be a
	// use-after-free in C++ into a detectable protocol violation.
	reclaimed atomic.Bool
}

// Engine is a OneFile transactional-memory engine. Create one with NewLF,
// NewWF, NewPersistentLF or NewPersistentWF; all methods are safe for
// concurrent use by up to MaxThreads goroutines at a time.
type Engine struct {
	cfg      tm.Config
	waitFree bool
	dev      pmem.Device // nil for the volatile variants

	words []dcas.Word // the transactional heap: one TM word per tm.Ptr

	slots []slot

	eras *he.Eras // hazard-era domain: pair grace periods + closure reclamation

	curTxImg    int    // pair-region index of curTx's persistent image
	dynBase     tm.Ptr // first dynamically allocatable heap word
	resultsBase tm.Ptr // first wait-free result word

	heViolations atomic.Uint64
	closed       atomic.Bool

	// cm is the contention-management layer (contention.go): parked slot
	// admission and the fixed spin and helper-backoff budgets.
	cm contention

	// comb is the group-commit combining layer (combine.go): AsyncUpdate/
	// BatchUpdate submissions merged into single engine transactions.
	comb combiner

	// obsv is the attached observability sink (obs.go), nil when nothing
	// is observing. The unobserved hot path pays exactly one load of this
	// pointer per transaction.
	obsv atomic.Pointer[EngineObs]

	// excl is the exclusivity gate (exclusive.go): the prepare/decide
	// hook the sharded store's cross-shard commit protocol runs on. The
	// ungated hot path pays one load of excl.gate per acquire.
	excl exclusive

	// The two globally contended words, each padded onto its own line.
	_         [64]byte
	curTx     atomic.Uint64
	_         [56]byte
	claimHint atomic.Uint32
	_         [60]byte
}

var (
	_ tm.Engine     = (*Engine)(nil)
	_ tm.Persistent = (*Engine)(nil)
)

// Errors returned by the persistent constructors.
var (
	// ErrBadDevice reports a device too small for the configuration.
	ErrBadDevice = errors.New("core: device does not fit configuration")
	// ErrNotFormatted reports attaching to a device with no valid heap.
	ErrNotFormatted = errors.New("core: device holds no OneFile heap (bad magic)")
	// ErrCorrupt reports a persistent image violating a recovery invariant.
	ErrCorrupt = errors.New("core: persistent image is corrupt")
)

// slotLogStride returns the per-slot raw log size (request + numStores +
// entries), line-aligned so slots never share cache lines.
func slotLogStride(maxStores int) int {
	n := 2 + 2*maxStores
	return (n + pmem.LineWords - 1) / pmem.LineWords * pmem.LineWords
}

// DeviceConfig returns the pmem configuration required by a persistent
// engine created with the same options.
func DeviceConfig(mode pmem.Mode, seed int64, opts ...tm.Option) pmem.Config {
	cfg := tm.Apply(opts)
	return pmem.Config{
		RawWords:  hdrWords + cfg.MaxThreads*slotLogStride(cfg.MaxStores),
		PairWords: cfg.HeapWords + 1,
		Mode:      mode,
		MaxSlots:  cfg.MaxThreads,
		Seed:      seed,
	}
}

// NewLF creates the lock-free OneFile STM (volatile memory).
func NewLF(opts ...tm.Option) *Engine {
	e, err := newEngine(tm.Apply(opts), false, nil, false)
	if err != nil {
		panic(err) // unreachable without a device
	}
	return e
}

// NewWF creates the bounded wait-free OneFile STM (volatile memory).
func NewWF(opts ...tm.Option) *Engine {
	e, err := newEngine(tm.Apply(opts), true, nil, false)
	if err != nil {
		panic(err) // unreachable without a device
	}
	return e
}

// NewPersistentLF creates (attach=false) or re-attaches to (attach=true)
// the lock-free OneFile PTM on dev. The options must match the ones the
// device was sized with (see DeviceConfig).
func NewPersistentLF(dev pmem.Device, attach bool, opts ...tm.Option) (*Engine, error) {
	return newEngine(tm.Apply(opts), false, dev, attach)
}

// NewPersistentWF creates or re-attaches to the wait-free OneFile PTM.
func NewPersistentWF(dev pmem.Device, attach bool, opts ...tm.Option) (*Engine, error) {
	return newEngine(tm.Apply(opts), true, dev, attach)
}

func newEngine(cfg tm.Config, waitFree bool, dev pmem.Device, attach bool) (*Engine, error) {
	e := &Engine{
		cfg:      cfg,
		waitFree: waitFree,
		dev:      dev,
		words:    make([]dcas.Word, cfg.HeapWords),
		slots:    make([]slot, cfg.MaxThreads),
		eras:     he.New(cfg.MaxThreads),
		curTxImg: cfg.HeapWords,
	}
	e.cm.init(runtime.GOMAXPROCS(0))
	e.excl.init()
	if !waitFree {
		e.comb.list = newOpList(true) // reused by every batch (combine.go)
	}
	e.resultsBase = talloc.MetaBase + talloc.MetaWords
	e.dynBase = e.resultsBase + tm.Ptr(2*cfg.MaxThreads)
	if int(e.dynBase)+64 > cfg.HeapWords {
		return nil, fmt.Errorf("core: heap of %d words too small for %d thread slots", cfg.HeapWords, cfg.MaxThreads)
	}
	if uint64(cfg.HeapWords) > logAddrMask {
		return nil, fmt.Errorf("core: heap of %d words exceeds the %d-bit log address field", cfg.HeapWords, logAddrBits)
	}
	if dev != nil {
		want := DeviceConfig(dev.Mode(), 0, func(c *tm.Config) { *c = cfg })
		if dev.RawWords() < want.RawWords || dev.PairWords() < want.PairWords {
			return nil, ErrBadDevice
		}
	}

	stride := slotLogStride(cfg.MaxStores)
	for i := range e.slots {
		s := &e.slots[i]
		s.id = i
		if dev != nil {
			s.logOff = hdrWords + i*stride
			region := dev.RawRegion(s.logOff, 2+2*cfg.MaxStores)
			s.request = &region[0]
			s.logNum = &region[1]
			s.logEnt = region[2:]
		} else {
			s.logOff = -1
			s.request = &s.localReq[0]
			s.logNum = &s.localReq[1]
			s.logEnt = make([]atomic.Uint64, 2*cfg.MaxStores)
		}
		s.ws = newWriteSet(s.logNum, s.logEnt, cfg.MaxStores)
		s.helpBuf = make([]uint64, 0)
		s.utx = uTx{e: e, s: s}
		s.rtx = rTx{e: e}
		s.ftx = fTx{e: e, s: s, cap: min(2, cfg.MaxStores)}
	}

	if attach {
		if err := e.attach(); err != nil {
			return nil, err
		}
		return e, nil
	}
	e.format()
	return e, nil
}

// format initialises a fresh heap (single-threaded).
func (e *Engine) format() {
	store := func(p tm.Ptr, v uint64) {
		e.words[p].Store(v, 0)
		if e.dev != nil {
			e.dev.FlushPair(0, int(p), v, 0)
		}
	}
	talloc.InitDirect(store, e.dynBase, e.cfg.HeapWords)
	init0 := makeTx(1, 0)
	e.curTx.Store(init0)
	if e.dev != nil {
		e.dev.FlushPair(0, e.curTxImg, init0, init0)
		e.dev.RawStore(hdrMagic, magicVal)
		e.dev.Flush(0, hdrMagic, 1)
		e.dev.Fence(0)
		e.dev.ResetStats() // formatting traffic is not part of any experiment
	}
}

// attach rebuilds the volatile state from the device's persistent image and
// performs null recovery (§III-D): if the last committed transaction's
// request is still open, apply and close it. The device must be quiescent,
// with Crash() already invoked if a failure occurred.
func (e *Engine) attach() error {
	if e.dev == nil {
		return errors.New("core: attach requires a device")
	}
	if e.dev.ImageRaw(hdrMagic) != magicVal {
		return ErrNotFormatted
	}
	cur, _ := e.dev.ImagePair(e.curTxImg)
	if cur == 0 {
		return ErrCorrupt
	}
	e.curTx.Store(cur)
	maxSeq := seqOf(cur)
	wordMax := uint64(0)
	for i := 0; i < e.cfg.HeapWords; i++ {
		val, seq := e.dev.ImagePair(i)
		if seq > wordMax {
			wordMax = seq
		}
		if val != 0 || seq != 0 {
			e.words[i].Store(val, seq)
		}
	}
	switch {
	case wordMax > maxSeq:
		// Durable words running AHEAD of the durable curTx image: only
		// fast-path commits leave this (fastpath.go — they never flush the
		// image; full-path and helper commits persist the image, with an
		// ordering drain, before any word of their sequence can become
		// durable). A word durable at sequence s proves every transaction
		// before s completed durably — committing s required the previous
		// request closed, and a fast request closes only after its own
		// flush+fence — and the words of s itself are all-or-nothing (one
		// atomic line flush). wordMax is therefore the true recovery point.
		//
		// Adopt it under a slot whose DURABLE request does not read as that
		// very identifier, so the null-recovery branch below stays dead: a
		// matching stale request (a fast winner's log is never flushed, but
		// an earlier full-path loser's flushed log could collide) would
		// replay a log that does not belong to the adopted commit. Such a
		// slot always exists — the fast winner's own request store was
		// never persisted, and it cannot have both lost and won wordMax.
		adopted := false
		for t := range e.slots {
			if e.dev.ImageRaw(e.slots[t].logOff) != makeTx(wordMax, t) {
				cur = makeTx(wordMax, t)
				adopted = true
				break
			}
		}
		if !adopted {
			return fmt.Errorf("%w: durable words reach sequence %d but every slot's durable request claims it", ErrCorrupt, wordMax)
		}
		e.curTx.Store(cur)
		e.dev.FlushPair(0, e.curTxImg, cur, cur)
		e.dev.Fence(0)
	case e.pending(cur) && !e.logIntact(cur):
		// The owner's next transaction had begun to overwrite the log, so
		// cur completed durably before the crash: close its request
		// instead of replaying a mixed log (here or in any later helper).
		e.slots[tidOf(cur)].request.Store(cur + 1)
	case e.pending(cur):
		// Null recovery: the regular helping path finishes the last
		// committed transaction if its request is still open. Stale open
		// requests of transactions that never became durable fail the
		// identifier match and are ignored, exactly as during normal
		// execution.
		e.helpApply(cur, &e.slots[0])
	}
	// Resume each slot's operation-tag counter from its durable tag word:
	// a fresh counter would re-issue tags the old heap already marked
	// done, and opResult would return a stale result without executing
	// the new operation.
	for i := range e.slots {
		_, tagW := e.resultWord(i)
		val, _ := e.words[tagW].Load()
		e.slots[i].opTag = val &^ opFailBit
	}
	return nil
}

// logIntact reports whether every entry of txid's slot log carries txid's
// log tag. A request that still reads as txid while some entry carries
// another tag means the slot's next transaction had started overwriting
// the log, which it does only after txid's request closed — so txid is
// already durable and its log must not be replayed (see logTag). A log
// with no tags at all was written before tags existed and replays as
// before.
func (e *Engine) logIntact(txid uint64) bool {
	s := &e.slots[tidOf(txid)]
	n := s.logNum.Load()
	if n == 0 || n > uint64(e.cfg.MaxStores) {
		return n == 0
	}
	tag := s.logEnt[0].Load() &^ logAddrMask
	if tag != logTag(seqOf(txid)) && tag != 0 {
		return false
	}
	for i := uint64(1); i < n; i++ {
		if s.logEnt[2*i].Load()&^logAddrMask != tag {
			return false
		}
	}
	return true
}

// Name implements tm.Engine.
func (e *Engine) Name() string {
	switch {
	case e.dev == nil && !e.waitFree:
		return "OF-LF"
	case e.dev == nil && e.waitFree:
		return "OF-WF"
	case !e.waitFree:
		return "OF-LF-PTM"
	default:
		return "OF-WF-PTM"
	}
}

// Stats implements tm.Engine: the sum of the per-slot counters.
func (e *Engine) Stats() tm.Stats {
	var s tm.Stats
	for i := range e.slots {
		st := &e.slots[i].st
		s.Commits += st.commits.Load()
		s.Aborts += st.aborts.Load()
		s.ReadCommits += st.readCommits.Load()
		s.ReadAborts += st.readAborts.Load()
		s.Helps += st.helps.Load()
		s.CAS += st.cas.Load()
		s.DCAS += st.dcas.Load()
		s.AggregatedOp += st.aggregated.Load()
		f := &e.slots[i].fst
		s.FastCommits += f.commits.Load()
		s.FastFallbacks += f.fbConflict.Load() + f.fbIneligible.Load() + f.fbCrossLine.Load()
		// A fast commit bumps only fst.commits; it is folded into the
		// engine-wide Commits here so the hot path pays one counter update.
		s.Commits += f.commits.Load()
	}
	// Every attempt ends as exactly one commit or one fallback; the hot
	// path does not pay a separate attempts counter.
	s.FastAttempts = s.FastCommits + s.FastFallbacks
	s.Batches = e.comb.batches.Load()
	s.BatchedOps = e.comb.batchedOps.Load()
	if e.dev != nil {
		d := e.dev.Stats()
		s.Pwb, s.Pfence, s.Pdrain = d.Pwb, d.Pfence, d.Pdrain
	}
	return s
}

// HEViolations returns how often a hazard-era-protected operation
// descriptor was observed after reclamation. It must always be zero; tests
// assert it.
func (e *Engine) HEViolations() uint64 { return e.heViolations.Load() }

// Eras exposes the engine's hazard-era domain (test aid).
func (e *Engine) Eras() *he.Eras { return e.eras }

// DynBase returns the first dynamically allocatable heap word (audit aid).
func (e *Engine) DynBase() tm.Ptr { return e.dynBase }

// Close implements tm.Engine. The engine must be idle. Transactions begun
// after Close panic with tm.ErrEngineClosed (acquire checks the flag, and
// the wake-all empties the parking list so no goroutine sleeps forever on a
// slot that will never be released).
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.wakeAll()
	// Wake acquirers parked on the exclusivity gate (exclusive.go): they
	// re-check closed and fail fast.
	e.gateBroadcast()
	// Fail queued combiner submissions: their submitters are parked on
	// futures, not on the slot wait list, so the wake-all above cannot
	// reach them (combine.go).
	e.failPending(tm.ErrEngineClosed)
	return nil
}

// Recover implements tm.Persistent for an already-attached engine: it
// re-runs null recovery. New engines attach with NewPersistent*(dev, true).
func (e *Engine) Recover() error {
	if e.dev == nil {
		return errors.New("core: volatile engine has nothing to recover")
	}
	cur := e.curTx.Load()
	if e.pending(cur) {
		e.helpApply(cur, &e.slots[0])
	}
	return nil
}

// acquire claims a thread slot — MaxThreads acts as a concurrency
// throttle. The happy path is one load of the claim hint (no XADD: a solo
// caller reuses the same slot run after run), one claim CAS on that slot
// and one load of the exclusivity gate. Anything else — slot taken, gate
// closed — falls to acquireG's rotating scan, spin, park and gate pass, so
// goroutines beyond MaxThreads sleep instead of timeslicing against the
// workers they are waiting on. Transactions begun after Close fail fast.
func (e *Engine) acquire() *slot {
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	s := &e.slots[e.claimHint.Load()%uint32(len(e.slots))]
	if s.claimed.Load() == 0 && s.claimed.CompareAndSwap(0, 1) {
		if e.excl.gate.v.Load() == 0 {
			return s
		}
		e.unclaim(s)
	}
	return e.acquireG(false)
}

// acquireG is acquire's slow path with an explicit gate policy: the
// exclusivity holder's own transactions (UpdateExclusive) bypass the gate,
// everyone else backs off a claimed slot the moment the gate is observed
// closed and parks until it reopens (exclusive.go). The gate check is one
// load of a padded atomic after the claim CAS. A parked acquirer may
// return from gateWait holding an anti-starvation pass: its next
// successful claim skips the gate check, and the pass count is decremented
// only after that claim CAS so the exclusive drain orders itself behind
// the claim.
func (e *Engine) acquireG(bypassGate bool) *slot {
	if e.closed.Load() {
		panic(tm.ErrEngineClosed)
	}
	n := len(e.slots)
	// The hint is reduced in unsigned space before the int conversion: a
	// wrapped (or 32-bit-truncated) counter must never reach Go's signed %
	// negative, which would yield a negative slot index.
	start := int(e.claimHint.Add(1) % uint32(n))
	pass := false
	for {
		for spin := 0; spin <= e.cm.spinBudget; spin++ {
			if s := e.tryClaim(start); s != nil {
				if !bypassGate && !pass && e.excl.gate.v.Load() != 0 {
					e.unclaim(s)
					pass = e.gateWait()
					continue
				}
				if pass {
					e.excl.passes.Add(-1)
				}
				return s
			}
			if e.closed.Load() {
				panic(tm.ErrEngineClosed)
			}
			runtime.Gosched()
		}
		if s := e.park(start); s != nil {
			if !bypassGate && !pass && e.excl.gate.v.Load() != 0 {
				e.unclaim(s)
				pass = e.gateWait()
				continue
			}
			if pass {
				e.excl.passes.Add(-1)
			}
			return s
		}
	}
}

// release clears the slot's era announcement before the claim flag: the
// next claimant of the same slot announces its own era, and a stale Clear
// must never stomp it. The boundary-yield counter is owner-private and is
// bumped before the claim flag clears, so the next claimant's CAS orders
// it. Release then wakes one parked acquirer, if any, and every
// yieldEvery-th release of the slot yields the processor.
func (e *Engine) release(s *slot) {
	e.eras.Clear(s.id)
	s.releases++
	yield := s.releases%yieldEvery == 0
	s.claimed.Store(0)
	if e.cm.waiters.Load() > 0 {
		e.wakeOne()
	}
	if yield {
		// Boundary yield (contention.go): the slot and era are already
		// released, so being descheduled here pins nothing.
		runtime.Gosched()
	}
}

// pending reports whether txid is committed but possibly not fully applied:
// its owner's request still carries the identifier (§III-A).
func (e *Engine) pending(txid uint64) bool {
	return e.slots[tidOf(txid)].request.Load() == txid
}

// --- pair pool ---

// getPair returns a recycled Pair, or allocates while the pool is cold. It
// never scans the announcement array itself: retirePairs reclaims in
// batches of poolScanEvery, so a transient empty free list (retirees still
// inside their grace period) costs a few allocations, not a scan per DCAS.
func (e *Engine) getPair(s *slot) *dcas.Pair {
	p := &s.pool
	if n := len(p.free); n > 0 {
		pr := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return pr
	}
	return dcas.NewPooled()
}

// putPair returns a never-published candidate pair to the free list.
func (e *Engine) putPair(s *slot, pr *dcas.Pair) {
	if len(s.pool.free) < poolMaxFree {
		s.pool.free = append(s.pool.free, pr)
	}
}

// retirePairs hands the apply phase's batch of replaced pairs to the pool.
// The whole batch shares one retire era — the curTx sequence read here,
// which is at or after the sequence at every replacing DCAS of the batch.
func (e *Engine) retirePairs(s *slot) {
	if len(s.replaced) == 0 {
		return
	}
	era := seqOf(e.curTx.Load())
	p := &s.pool
	for i, pr := range s.replaced {
		p.retired = append(p.retired, pr)
		p.eras = append(p.eras, era)
		s.replaced[i] = nil
	}
	p.sinceScan += len(s.replaced)
	s.replaced = s.replaced[:0]
	if p.sinceScan >= poolScanEvery {
		e.reclaimPairs(s)
	}
}

// reclaimPairs moves retired pairs whose era has expired onto the free
// list. A pair retired at era r may still be dereferenced only by threads
// whose announced era is ≤ r (they loaded its pointer before the replacing
// DCAS, having announced no later than that), so everything retired before
// the minimum announced era is free — one wait-free pass over the
// announcement array.
func (e *Engine) reclaimPairs(s *slot) {
	p := &s.pool
	p.sinceScan = 0
	min := e.eras.MinProtected()
	n := 0
	for n < len(p.eras) && p.eras[n] < min {
		n++
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		if len(p.free) < poolMaxFree {
			p.free = append(p.free, p.retired[i])
		}
		p.retired[i] = nil
	}
	k := copy(p.retired, p.retired[n:])
	clearTail := p.retired[k:]
	for i := range clearTail {
		clearTail[i] = nil
	}
	p.retired = p.retired[:k]
	p.eras = p.eras[:copy(p.eras, p.eras[n:])]
}
