package core

import (
	"sync/atomic"
	"testing"

	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// Hot-path microbenchmarks. Run with -benchmem: the allocation counts here
// are the acceptance numbers for the pair-recycling and closure-elimination
// work (see EXPERIMENTS.md "Go-specific hot-path costs").

func benchOpts() []tm.Option {
	return []tm.Option{
		tm.WithHeapWords(1 << 16),
		tm.WithMaxThreads(8),
		tm.WithMaxStores(1 << 12),
	}
}

func newBenchPTM(b *testing.B, waitFree bool) *Engine {
	b.Helper()
	dev, err := pmem.New(DeviceConfig(pmem.StrictMode, 1, benchOpts()...))
	if err != nil {
		b.Fatal(err)
	}
	var e *Engine
	if waitFree {
		e, err = NewPersistentWF(dev, false, benchOpts()...)
	} else {
		e, err = NewPersistentLF(dev, false, benchOpts()...)
	}
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// updateTxBody is hoisted so the benchmark measures engine allocations, not
// the cost of materialising a fresh closure per iteration.
func updateTxBody(tx tm.Tx) uint64 {
	tx.Store(tm.Root(0), tx.Load(tm.Root(0))+1)
	return 0
}

func readTxBody(tx tm.Tx) uint64 { return tx.Load(tm.Root(0)) }

func emptyTxBody(tx tm.Tx) uint64 { return 0 }

func BenchmarkUpdateTx(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"WF", func(b *testing.B) tm.Engine { return NewWF(benchOpts()...) }},
		{"LF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, false) }},
		{"WF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, true) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			// Warm up free lists / lazy initialisation.
			for i := 0; i < 1024; i++ {
				e.Update(updateTxBody)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Update(updateTxBody)
			}
		})
	}
}

// BenchmarkUpdateTxWide measures a 16-store transaction over two contiguous
// cache lines — the flush-coalescing showcase on the persistent engines.
func BenchmarkUpdateTxWide(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"LF-PTM", func(b *testing.B) tm.Engine { return newBenchPTM(b, false) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			block := tm.Ptr(e.Update(func(tx tm.Tx) uint64 { return uint64(tx.Alloc(16)) }))
			body := func(tx tm.Tx) uint64 {
				for i := tm.Ptr(0); i < 16; i++ {
					tx.Store(block+i, tx.Load(block+i)+1)
				}
				return 0
			}
			for i := 0; i < 256; i++ {
				e.Update(body)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Update(body)
			}
		})
	}
}

// benchVariants are the four OneFile variants the combiner benchmarks run on.
var benchVariants = []struct {
	name string
	mk   func(b *testing.B) *Engine
}{
	{"LF", func(b *testing.B) *Engine { return NewLF(benchOpts()...) }},
	{"WF", func(b *testing.B) *Engine { return NewWF(benchOpts()...) }},
	{"LF-PTM", func(b *testing.B) *Engine { return newBenchPTM(b, false) }},
	{"WF-PTM", func(b *testing.B) *Engine { return newBenchPTM(b, true) }},
}

// update8Body writes eight words: too many for the fast path, so a solo
// submission of it runs as a one-op combined transaction.
func update8Body(tx tm.Tx) uint64 {
	for i := 0; i < 8; i++ {
		tx.Store(tm.Root(i), tx.Load(tm.Root(i))+1)
	}
	return 0
}

// BenchmarkAsyncUpdateSolo measures one submitter on an idle combiner: the
// caller executes its own op (1 word: the fast path; 8 words: a one-op
// combined transaction) and the future is resolved on return.
func BenchmarkAsyncUpdateSolo(b *testing.B) {
	for _, body := range []struct {
		name string
		fn   func(tm.Tx) uint64
	}{{"1word", updateTxBody}, {"8word", update8Body}} {
		for _, tc := range benchVariants {
			b.Run(body.name+"/"+tc.name, func(b *testing.B) {
				e := tc.mk(b)
				for i := 0; i < 1024; i++ {
					e.AsyncUpdate(body.fn).Wait()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.AsyncUpdate(body.fn).Wait(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchUpdate16 measures one BatchUpdate window of 16 hot-counter
// increments, which the combiner runs as one combined transaction.
func BenchmarkBatchUpdate16(b *testing.B) {
	fns := make([]func(tm.Tx) uint64, 16)
	for i := range fns {
		fns[i] = updateTxBody
	}
	for _, tc := range benchVariants {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			for i := 0; i < 256; i++ {
				e.BatchUpdate(fns)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, r := range e.BatchUpdate(fns) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

func BenchmarkReadTx(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func(b *testing.B) tm.Engine
	}{
		{"LF", func(b *testing.B) tm.Engine { return NewLF(benchOpts()...) }},
		{"WF", func(b *testing.B) tm.Engine { return NewWF(benchOpts()...) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			e := tc.mk(b)
			e.Update(updateTxBody)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Read(readTxBody)
			}
		})
	}
}

func BenchmarkEmptyUpdateTx(b *testing.B) {
	e := NewLF(benchOpts()...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Update(emptyTxBody)
	}
}

func newBenchWS(capacity int) *writeSet {
	num := new(atomic.Uint64)
	ent := make([]atomic.Uint64, 2*capacity)
	ws := newWriteSet(num, ent, capacity)
	return &ws
}

func BenchmarkWriteSetLookupLinear(b *testing.B) {
	ws := newBenchWS(1 << 10)
	ws.reset()
	for i := 0; i < linearMax; i++ {
		ws.addOrReplace(uint64(100+i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.lookup(uint64(100 + i%linearMax))
	}
}

func BenchmarkWriteSetLookupHashed(b *testing.B) {
	ws := newBenchWS(1 << 10)
	ws.reset()
	n := linearMax * 4
	for i := 0; i < n; i++ {
		ws.addOrReplace(uint64(100+i), uint64(i))
	}
	if !ws.hashed {
		b.Fatal("write-set not in hashed regime")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.lookup(uint64(100 + i%n))
	}
}

func BenchmarkWriteSetAddOrReplace(b *testing.B) {
	ws := newBenchWS(1 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			ws.reset()
		}
		ws.addOrReplace(uint64(1+i%16), uint64(i))
	}
}
