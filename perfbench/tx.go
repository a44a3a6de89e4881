package main

// The tx-mix workload: direct library calls, no sockets. Goroutines run a
// mix of transactions against a two-shard OF-WF-PTM store on filedev
// devices, each shard holding one block of account words.
//
// Increments (tm.UpdateSmall and tm.Batch) add to the accounts' total;
// transfers (Update on one shard, UpdateCross across both) move units and
// leave it unchanged. After the crash the total, taken modulo 2^64 like
// the words themselves, must equal the acknowledged increments.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"onefile/internal/pmem"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

type txConfig struct {
	shards     int
	accounts   int // account words per shard, one allocated block
	heapWords  int // per shard
	goroutines int
	mix        [numOps]int
	streamOps  int // ops generated per goroutine; the stream repeats
	batchOps   int // increments per tm.Batch
	transfer   int // accounts touched by an Update transfer
	readWords  int // accounts summed by a Read
}

func txMixConfig() txConfig {
	c := txConfig{
		shards: 2, accounts: 4096, heapWords: 1 << 18, goroutines: 2,
		streamOps: 1 << 18, batchOps: 16, transfer: 8, readWords: 16,
	}
	c.mix[opSmall], c.mix[opUpdate], c.mix[opRead], c.mix[opBatch], c.mix[opCross] = 35, 25, 25, 13, 2
	return c
}

const accountRoot = 0 // root slot holding a shard's account block

// txOp is one generated operation. acct indexes the stream's account list.
type txOp struct {
	kind  uint8
	shard uint8
	acct  int32 // first of the op's accounts in txStream.accts
}

type txStream struct {
	ops   []txOp
	accts []int32
}

func genTx(cfg txConfig, seed int64) []txStream {
	out := make([]txStream, cfg.goroutines)
	for g := range out {
		r := rand.New(rand.NewSource(seed*1000 + int64(g) + 1))
		st := &out[g]
		st.ops = make([]txOp, cfg.streamOps)
		// distinct appends n distinct account indices.
		distinct := func(n int) {
			start := len(st.accts)
			for len(st.accts) < start+n {
				a := int32(r.Intn(cfg.accounts))
				dup := false
				for _, b := range st.accts[start:] {
					dup = dup || a == b
				}
				if !dup {
					st.accts = append(st.accts, a)
				}
			}
		}
		for i := range st.ops {
			op := &st.ops[i]
			op.shard = uint8(r.Intn(cfg.shards))
			op.acct = int32(len(st.accts))
			x := r.Intn(100)
			switch {
			case x < cfg.mix[opSmall]:
				op.kind = opSmall
				distinct(1)
			case x < cfg.mix[opSmall]+cfg.mix[opUpdate]:
				op.kind = opUpdate
				distinct(cfg.transfer)
			case x < cfg.mix[opSmall]+cfg.mix[opUpdate]+cfg.mix[opRead]:
				op.kind = opRead
				distinct(cfg.readWords)
			case x < cfg.mix[opSmall]+cfg.mix[opUpdate]+cfg.mix[opRead]+cfg.mix[opBatch]:
				op.kind = opBatch
				for range cfg.batchOps {
					distinct(1)
				}
			default:
				// One account on each side; op.shard is the side that pays.
				op.kind = opCross
				distinct(1)
				distinct(1)
			}
		}
	}
	return out
}

// txBench is one set-up instance of tx-mix.
type txBench struct {
	cfg     txConfig
	streams []txStream
	t       *tracer
	opts    []tm.Option
	devs    []*memDevice
	st      *shard.Store
	base    []tm.Ptr // each shard's account block
	keys    []uint64 // a key homed on each shard, for UpdateCross

	// Acknowledged increments: per goroutine, units added to the total.
	added []uint64
}

func (c txConfig) opts() []tm.Option { return []tm.Option{tm.WithHeapWords(c.heapWords)} }

// setupTx sets up the store; every shard's device is a copy of img.
func setupTx(cfg txConfig, streams []txStream, img *deviceImage, t *tracer) (_ *txBench, err error) {
	b := &txBench{
		cfg: cfg, streams: streams, t: t,
		opts:  cfg.opts(),
		added: make([]uint64, cfg.goroutines),
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	devs := make([]pmem.Device, cfg.shards)
	for i := range devs {
		d, err := img.open(fmt.Sprintf("shard%d", i))
		if err != nil {
			return nil, err
		}
		b.devs = append(b.devs, d)
		devs[i] = wrapDevice(d, t)
	}
	b.st, err = shard.NewPersistent(devs, true, false, nil, b.opts...)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.shards; i++ {
		b.st.UpdateOn(i, func(tx tm.Tx) uint64 {
			tx.Store(tm.Root(accountRoot), uint64(tx.Alloc(cfg.accounts)))
			return 0
		})
	}
	b.loadBases()
	for i := 0; i < cfg.shards; i++ {
		k := uint64(0)
		for b.st.ShardFor(k) != i {
			k++
		}
		b.keys = append(b.keys, k)
	}
	return b, nil
}

func (b *txBench) loadBases() {
	b.base = b.base[:0]
	for i := 0; i < b.cfg.shards; i++ {
		b.base = append(b.base, tm.Ptr(b.st.ReadOn(i, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(accountRoot)) })))
	}
}

// counters sums every shard engine's Stats. Store.Stats would drop the
// fast-path counters, so each engine is read on its own.
func (b *txBench) counters() layerCounters {
	var s tm.Stats
	for i := 0; i < b.cfg.shards; i++ {
		// a - (0 - x) adds x: tm.Stats has Sub but no Add.
		s = s.Sub(tm.Stats{}.Sub(b.st.Engine(i).Stats()))
	}
	return layerCounters{tm: s, cross: b.st.CrossStats().Cross}
}

func (b *txBench) drive(clk clock, prog []progress) *window {
	return runClients(b.cfg.goroutines, func(g int) *window { return b.worker(g, clk, &prog[g].n) })
}

func (b *txBench) worker(g int, clk clock, done *atomic.Uint64) *window {
	st := &b.streams[g]
	w := &window{}
	pos := 0
	fns := make([]func(tm.Tx) uint64, b.cfg.batchOps)
	for {
		start := time.Now()
		if !start.Before(clk.end) {
			return w
		}
		op := &st.ops[pos]
		pos = (pos + 1) % len(st.ops)
		e := b.st.Engine(int(op.shard))
		base := b.base[op.shard]
		acct := func(j int) tm.Ptr { return base + tm.Ptr(st.accts[int(op.acct)+j]) }
		w.attempted++
		switch op.kind {
		case opSmall:
			p := acct(0)
			traced(b.t, spanSmall, func() uint64 {
				return tm.UpdateSmall(e, func(tx tm.Tx) uint64 { tx.Store(p, tx.Load(p)+1); return 0 })
			})
			b.added[g]++
		case opUpdate:
			var ps [16]tm.Ptr
			for j := range b.cfg.transfer {
				ps[j] = acct(j)
			}
			n := b.cfg.transfer
			body := func(tx tm.Tx) uint64 {
				for j := 0; j < n; j += 2 {
					amt := uint64(j + 1)
					tx.Store(ps[j], tx.Load(ps[j])-amt)
					tx.Store(ps[j+1], tx.Load(ps[j+1])+amt)
				}
				return 0
			}
			if b.t.active() {
				id, s := b.t.newID(), b.t.now()
				e.Update(tracedBody(b.t, spanBody, id, body))
				b.t.record(spanUpdate, id, 0, s)
			} else {
				e.Update(body)
			}
		case opRead:
			var ps [16]tm.Ptr
			for j := range b.cfg.readWords {
				ps[j] = acct(j)
			}
			n := b.cfg.readWords
			traced(b.t, spanRead, func() uint64 {
				return e.Read(func(tx tm.Tx) uint64 {
					var sum uint64
					for _, p := range ps[:n] {
						sum += tx.Load(p)
					}
					return sum
				})
			})
		case opBatch:
			for j := range fns {
				p := acct(j)
				fns[j] = func(tx tm.Tx) uint64 { tx.Store(p, tx.Load(p)+1); return 0 }
			}
			res := traced(b.t, spanBatch, func() []tm.BatchResult { return tm.Batch(e, fns) })
			failed := false
			for _, r := range res {
				if r.Err != nil {
					w.fail("batch: %v", r.Err)
					failed = true
				} else {
					b.added[g]++
				}
			}
			if failed {
				continue
			}
		case opCross:
			from, to := int(op.shard), 1-int(op.shard)
			pf := base + tm.Ptr(st.accts[op.acct])
			pt := b.base[to] + tm.Ptr(st.accts[op.acct+1])
			var err error
			traced(b.t, spanCross, func() uint64 {
				v, cerr := b.st.UpdateCross(b.keys, func(m tm.MultiTx) uint64 {
					m.Store(from, pf, m.Load(from, pf)-1)
					m.Store(to, pt, m.Load(to, pt)+1)
					return 0
				})
				err = cerr
				return v
			})
			if err != nil {
				w.fail("cross: %v", err)
				continue
			}
		}
		w.record(clk, int(op.kind), start)
		done.Store(w.ops)
	}
}

func (b *txBench) quiesce() error { return nil }

// crashAttach simulates a power failure on every shard device and
// re-attaches the store, which runs each engine's recovery and resolves
// any cross-shard commit in doubt.
func (b *txBench) crashAttach() (time.Duration, error) {
	if err := b.st.Close(); err != nil {
		return 0, err
	}
	b.st = nil
	runtime.GC() // a restarted process would not hold the old engine
	start := time.Now()
	devs := make([]pmem.Device, len(b.devs))
	for i, d := range b.devs {
		d.Crash()
		devs[i] = d
	}
	st, err := shard.NewPersistent(devs, true, true, nil, b.opts...)
	if err != nil {
		return 0, fmt.Errorf("re-attach: %w", err)
	}
	took := time.Since(start)
	b.st = st
	b.loadBases()
	return took, nil
}

// verify checks that the recovered accounts sum to the acknowledged
// increments.
func (b *txBench) verify() []string {
	var want, got uint64
	for _, a := range b.added {
		want += a
	}
	for i := 0; i < b.cfg.shards; i++ {
		base, n := b.base[i], b.cfg.accounts
		got += b.st.ReadOn(i, func(tx tm.Tx) uint64 {
			var s uint64
			for j := 0; j < n; j++ {
				s += tx.Load(base + tm.Ptr(j))
			}
			return s
		})
	}
	if got != want {
		return []string{fmt.Sprintf("accounts sum to %d, want %d acknowledged increments", got, want)}
	}
	return nil
}

func (b *txBench) close() error {
	var err error
	if b.st != nil {
		err = b.st.Close()
	}
	for _, d := range b.devs {
		err = errors.Join(err, d.Close())
	}
	return err
}
