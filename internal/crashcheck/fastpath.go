package crashcheck

import (
	"fmt"
	"math/rand"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Fast-path workload: the small-transaction DCAS fast path (DESIGN.md
// §14) deliberately commits WITHOUT flushing the curTx image — exactly one
// pwb + one pfence per transaction — and recovery compensates by adopting
// the maximum durable word sequence when it runs ahead of the durable image.
// That inversion of the §III-D invariant is the riskiest part of the fast
// path, so it gets its own enumerated sweep: a workload of one- and
// two-word transactions submitted through tm.UpdateSmall, interleaved with
// full-path transactions (whose commits DO flush the image), crashed at
// every persistence event, recovered, and checked against a sequential
// oracle. The mixture matters: it exercises fast-after-full adoption chains,
// full-after-fast image catch-up, and the null-recovery/adoption decision in
// core's attach at every boundary between the two commit protocols.
//
// Fast transactions carry no allocation (that is what makes them eligible),
// so the verifier's differential check is over bare root words rather than
// containers, and the allocator audit is vacuous and skipped.

// fpSlots is how many root-slot words the fast-path workload mutates.
// Values are gen-stamped, so every transaction prefix has a distinct digest
// and a torn or lost commit cannot hide.
const fpSlots = 6

// fastTxn is one transaction of the fast-path workload: 1–2 stores
// submitted via tm.UpdateSmall, or a 3-store full-path e.Update.
type fastTxn struct {
	full  bool
	slots []int
	vals  []uint64
}

// FastProgram is the deterministic transaction list of the fast-path
// workload plus its oracle digests, analogous to Program.
type FastProgram struct {
	oracle
	txns []fastTxn
}

// NewFastProgram derives the fast-path workload from seed: txns
// transactions, roughly two thirds small (1–2 stores, the two-store ones on
// a single pair cache line so the persistent fast path engages) and one
// third full-path 3-store transactions.
func NewFastProgram(seed int64, txns int) *FastProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &FastProgram{oracle: oracle{Seed: seed, mixed: txns}}
	// Root slots whose heap words share a pair cache line, grouped, so a
	// generated two-store transaction is always fast-path eligible on a PTM.
	var groups [][]int
	cur := []int{0}
	for s := 1; s < fpSlots; s++ {
		if uint64(tm.Root(s))/pmem.PairLineWords == uint64(tm.Root(cur[0]))/pmem.PairLineWords {
			cur = append(cur, s)
		} else {
			groups = append(groups, cur)
			cur = []int{s}
		}
	}
	groups = append(groups, cur)

	for t := 1; t <= txns; t++ {
		gen := uint64(t)
		val := func(slot int) uint64 { return gen<<8 | uint64(slot) }
		tx := fastTxn{}
		switch {
		case t%3 == 0:
			// Full-path transaction: three stores, spanning lines freely.
			tx.full = true
			for len(tx.slots) < 3 {
				s := rng.Intn(fpSlots)
				if len(tx.slots) > 0 && (s == tx.slots[0] || len(tx.slots) > 1 && s == tx.slots[1]) {
					continue
				}
				tx.slots = append(tx.slots, s)
				tx.vals = append(tx.vals, val(s))
			}
		case rng.Intn(2) == 0:
			// Small one-word transaction.
			s := rng.Intn(fpSlots)
			tx.slots = []int{s}
			tx.vals = []uint64{val(s)}
		default:
			// Small two-word transaction on one pair cache line.
			g := groups[rng.Intn(len(groups))]
			for len(g) < 2 {
				g = groups[rng.Intn(len(groups))]
			}
			i := rng.Intn(len(g))
			j := rng.Intn(len(g) - 1)
			if j >= i {
				j++
			}
			tx.slots = []int{g[i], g[j]}
			tx.vals = []uint64{val(g[i]), val(g[j])}
		}
		p.txns = append(p.txns, tx)
	}

	// Oracle digests after every prefix.
	var words [fpSlots]uint64
	p.states = append(p.states, fastDigest(words))
	for _, tx := range p.txns {
		for i, s := range tx.slots {
			words[s] = tx.vals[i]
		}
		p.states = append(p.states, fastDigest(words))
	}
	return p
}

func fastDigest(words [fpSlots]uint64) string { return fmt.Sprintf("%x", words) }

// run executes the program on e: small transactions via tm.UpdateSmall
// (riding the engine's fast path when one exists), full ones via e.Update.
func (p *FastProgram) run(e tm.Engine, acked func(n int)) error {
	for _, t := range p.txns {
		tc := t
		body := func(tx tm.Tx) uint64 {
			for i, s := range tc.slots {
				tx.Store(tm.Root(s), tc.vals[i])
			}
			return 0
		}
		if tc.full {
			e.Update(body)
		} else {
			tm.UpdateSmall(e, body)
		}
		acked(1)
	}
	return nil
}

// readFastState reads the recovered engine's root words back into a digest.
func readFastState(e tm.Engine) string {
	var words [fpSlots]uint64
	e.Read(func(tx tm.Tx) uint64 {
		for s := 0; s < fpSlots; s++ {
			words[s] = tx.Load(tm.Root(s))
		}
		return 0
	})
	return fastDigest(words)
}

// fastWorkload runs a FastProgram on one engine with a fast path.
type fastWorkload struct {
	*FastProgram
	def EngineDef
}

// Fast returns the fast-path workload: p on def, whose small transactions
// go through tm.UpdateSmall. Only engines with a fast path
// (tm.SmallUpdater, the OneFile PTMs) are eligible.
func Fast(def EngineDef, p *FastProgram) Workload { return &fastWorkload{FastProgram: p, def: def} }

func (w *fastWorkload) Name() string { return w.def.Name }

func (w *fastWorkload) ident() (int64, int, int) { return w.Seed, w.mixed, 0 }

func (w *fastWorkload) Open(fac DeviceFactory, mode pmem.Mode, devSeed int64) ([]pmem.Device, func(func(int)) error, error) {
	dev, e, err := openEngine(fac, w.def, mode, devSeed)
	if err != nil {
		return nil, nil, err
	}
	if _, ok := e.(tm.SmallUpdater); !ok {
		dev.Close()
		return nil, nil, fmt.Errorf("crashcheck: %s has no small-transaction fast path; fast-path sweep is not meaningful", w.def.Name)
	}
	return []pmem.Device{dev}, func(acked func(int)) error { return w.run(e, acked) }, nil
}

func (w *fastWorkload) Inflight(int) int { return 1 }

// Recover skips the allocator audit (fast transactions never allocate, so
// it is vacuous) and checks liveness on both commit protocols.
func (w *fastWorkload) Recover(devs []pmem.Device, check func(string) error) error {
	e, err := w.def.New(devs[0], true, engineOpts()...)
	if err != nil {
		return fmt.Errorf("recovery failed: %w", err)
	}
	if err := check(readFastState(e)); err != nil {
		return err
	}
	return live(e, true)
}
