package crashcheck

import (
	"fmt"
	"math/rand"

	"onefile/internal/core"
	"onefile/internal/pmem"
	"onefile/internal/shard"
	"onefile/internal/tm"
)

// The sharded workload extends the enumerated crash matrix across a
// partitioned multi-engine store (internal/shard): N devices, one per
// shard, behind the driver's one shared event counter, so a simulated power
// failure hits the whole machine at one global persistence event — exactly
// the adversary the cross-shard two-phase commit must survive. Recovery
// re-attaches the full device set (running in-doubt resolution) and checks
// the recovered state against a cross-shard sequential oracle: after a
// crash anywhere inside a 2PC — between prepares, after the decide, during
// the applies — the store must hold exactly the oracle state after k or
// k+1 whole workload transactions, never a torn transfer.

// shardInitialPot funds each shard's transfer balance so cross-shard
// debits never wrap.
const shardInitialPot = 1 << 16

// stxn is one transaction of the sharded canonical workload.
type stxn struct {
	setup int    // 1-based shard whose pot this transaction initialises; 0 = none
	cross bool   // cross-shard transfer a→b vs single-shard deposit on a
	a, b  int    // participating shards
	delta uint64 // amount moved or deposited
	gen   uint64 // unique stamp: makes every oracle prefix digest distinct
}

// ShardedProgram is the deterministic cross-shard workload plus the oracle
// digests after every prefix of it. Shard i's heap uses Root(0) for its
// transfer pot, Root(1) for the last generation stamp that touched it and
// Root(2) for the liveness probe.
type ShardedProgram struct {
	oracle
	Shards int
	txns   []stxn
}

// NewShardedProgram derives the workload from seed: one pot-initialising
// transaction per shard, then txns mixed transactions of which roughly 40%
// are two-shard transfers (every pair drawn uniformly) and the rest
// single-shard deposits. Needs at least two shards.
func NewShardedProgram(seed int64, shards, txns int) *ShardedProgram {
	if shards < 2 {
		panic(fmt.Sprintf("crashcheck: sharded program needs >=2 shards, got %d", shards))
	}
	rng := rand.New(rand.NewSource(seed))
	p := &ShardedProgram{oracle: oracle{Seed: seed, mixed: txns}, Shards: shards}
	for s := 1; s <= shards; s++ {
		p.txns = append(p.txns, stxn{setup: s})
	}
	for t := 1; t <= txns; t++ {
		x := stxn{gen: uint64(t), delta: uint64(rng.Intn(64) + 1)}
		x.a = rng.Intn(shards)
		if rng.Intn(5) < 2 {
			x.cross = true
			x.b = (x.a + 1 + rng.Intn(shards-1)) % shards
		}
		p.txns = append(p.txns, x)
	}

	pots := make([]uint64, shards)
	gens := make([]uint64, shards)
	p.states = append(p.states, digestShards(pots, gens))
	for _, x := range p.txns {
		applyShardTxn(pots, gens, x)
		p.states = append(p.states, digestShards(pots, gens))
	}
	return p
}

func applyShardTxn(pots, gens []uint64, x stxn) {
	switch {
	case x.setup > 0:
		pots[x.setup-1] = shardInitialPot
	case x.cross:
		pots[x.a] -= x.delta
		pots[x.b] += x.delta
		gens[x.a] = x.gen
		gens[x.b] = x.gen
	default:
		pots[x.a] += x.delta
		gens[x.a] = x.gen
	}
}

func digestShards(pots, gens []uint64) string {
	return fmt.Sprintf("pots=%v gens=%v", pots, gens)
}

// identityPart maps key k directly to shard k (bounds 1..n-1), so the
// workload addresses shards without hashing indirection.
func identityPart(n int) shard.Partitioner {
	bounds := make([]uint64, n-1)
	for i := range bounds {
		bounds[i] = uint64(i + 1)
	}
	return shard.NewRange(bounds)
}

// run executes the program on st, one store-level transaction per workload
// transaction, calling acked after each one returns.
func (p *ShardedProgram) run(st *shard.Store, acked func(n int)) error {
	for _, t := range p.txns {
		tc := t
		switch {
		case tc.setup > 0:
			st.UpdateOn(tc.setup-1, func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), shardInitialPot)
				return 0
			})
		case tc.cross:
			if _, err := st.UpdateCross([]uint64{uint64(tc.a), uint64(tc.b)}, func(m tm.MultiTx) uint64 {
				m.Store(tc.a, tm.Root(0), m.Load(tc.a, tm.Root(0))-tc.delta)
				m.Store(tc.b, tm.Root(0), m.Load(tc.b, tm.Root(0))+tc.delta)
				m.Store(tc.a, tm.Root(1), tc.gen)
				m.Store(tc.b, tm.Root(1), tc.gen)
				return 0
			}); err != nil {
				return err
			}
		default:
			st.UpdateOn(tc.a, func(tx tm.Tx) uint64 {
				tx.Store(tm.Root(0), tx.Load(tm.Root(0))+tc.delta)
				tx.Store(tm.Root(1), tc.gen)
				return 0
			})
		}
		acked(1)
	}
	return nil
}

// readShardedState reads the recovered store's logical state back into an
// oracle digest.
func readShardedState(st *shard.Store) string {
	pots := make([]uint64, st.Shards())
	gens := make([]uint64, st.Shards())
	for s := 0; s < st.Shards(); s++ {
		pots[s] = st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) })
		gens[s] = st.ReadOn(s, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(1)) })
	}
	return digestShards(pots, gens)
}

// shardedWorkload runs a ShardedProgram on a store of OneFile engines,
// one device per shard.
type shardedWorkload struct {
	*ShardedProgram
	waitFree bool
}

// Sharded returns the cross-shard workload: p on a p.Shards-engine store of
// OF-LF-PTM, or OF-WF-PTM when waitFree is set.
func Sharded(p *ShardedProgram, waitFree bool) Workload {
	return &shardedWorkload{ShardedProgram: p, waitFree: waitFree}
}

func (w *shardedWorkload) Name() string {
	if w.waitFree {
		return fmt.Sprintf("OF-WF-PTM x%d", w.Shards)
	}
	return fmt.Sprintf("OF-LF-PTM x%d", w.Shards)
}

func (w *shardedWorkload) ident() (int64, int, int) { return w.Seed, w.mixed, 0 }

// Open builds one device per shard, device i seeded devSeed+i so
// RelaxedMode reorders independently per shard.
func (w *shardedWorkload) Open(fac DeviceFactory, mode pmem.Mode, devSeed int64) ([]pmem.Device, func(func(int)) error, error) {
	var devs []pmem.Device
	for i := 0; i < w.Shards; i++ {
		d, err := fac.newDevice(core.DeviceConfig(mode, devSeed+int64(i), engineOpts()...))
		if err != nil {
			closeAll(devs)
			return nil, nil, err
		}
		devs = append(devs, d)
	}
	st, err := shard.NewPersistent(devs, w.waitFree, false, identityPart(w.Shards), engineOpts()...)
	if err != nil {
		closeAll(devs)
		return nil, nil, err
	}
	return devs, func(acked func(int)) error { return w.run(st, acked) }, nil
}

func (w *shardedWorkload) Inflight(int) int { return 1 }

// Recover attaches the store to the whole device set, letting in-doubt
// resolution run, audits every shard's allocator (the 2PC staging blocks
// are ordinary allocations) and checks that the recovered store still
// commits a cross-shard transaction.
func (w *shardedWorkload) Recover(devs []pmem.Device, check func(string) error) error {
	st, err := shard.NewPersistent(devs, w.waitFree, true, identityPart(w.Shards), engineOpts()...)
	if err != nil {
		return fmt.Errorf("sharded recovery failed: %w", err)
	}
	for s := 0; s < st.Shards(); s++ {
		if !audit(st.Engine(s)) {
			return fmt.Errorf("shard %d: allocator audit failed", s)
		}
	}
	if err := check(readShardedState(st)); err != nil {
		return err
	}
	last := st.Shards() - 1
	if _, err := st.UpdateCross([]uint64{0, uint64(last)}, func(m tm.MultiTx) uint64 {
		m.Store(0, tm.Root(2), 0xBEEF)
		m.Store(last, tm.Root(2), 0xBEEF)
		return 0
	}); err != nil {
		return fmt.Errorf("post-recovery cross-shard update failed: %w", err)
	}
	v0 := st.ReadOn(0, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(2)) })
	vl := st.ReadOn(last, func(tx tm.Tx) uint64 { return tx.Load(tm.Root(2)) })
	if v0 != 0xBEEF || vl != 0xBEEF {
		return fmt.Errorf("post-recovery cross-shard update lost: (%#x, %#x)", v0, vl)
	}
	return nil
}
