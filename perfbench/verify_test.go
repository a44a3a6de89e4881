package main

import (
	"io"
	"testing"
	"time"

	"onefile/internal/core"
	"onefile/internal/kvserver"
	"onefile/internal/pmem"
	"onefile/internal/tm"
)

// runAndRecover drives b briefly, then quiesces, crashes and re-attaches
// it, and checks that the untouched recovered state verifies clean.
func runAndRecover(t *testing.T, b bench) *window {
	t.Helper()
	w := b.drive(clock{time.Now(), time.Now().Add(200 * time.Millisecond)}, make([]progress, maxClients))
	if w.failed != 0 || w.ops == 0 {
		t.Fatalf("run: %d ops, %d failed: %v", w.ops, w.failed, w.failures)
	}
	if err := b.quiesce(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.crashAttach(); err != nil {
		t.Fatal(err)
	}
	if bad := b.verify(); len(bad) != 0 {
		t.Fatalf("clean run failed verification: %v", bad)
	}
	return w
}

// expectOneMismatch checks that verify reports exactly one mismatch and
// that the run is then reported as incorrect.
func expectOneMismatch(t *testing.T, b bench, w *window) {
	t.Helper()
	o := &outcome{w: w, mismatches: b.verify()}
	if len(o.mismatches) != 1 {
		t.Fatalf("got %d mismatches, want 1: %v", len(o.mismatches), o.mismatches)
	}
	res := &result{}
	newReport(io.Discard).tally(res, o)
	if res.Failed != 1 {
		t.Fatalf("result counts %d failures, want 1", res.Failed)
	}
}

// smallKV sets up a scaled-down kv-write instance.
func smallKV(t *testing.T, seed int64) *kvBench {
	t.Helper()
	cfg := kvWriteConfig()
	cfg.keys, cfg.heapWords, cfg.buckets, cfg.streamOps = 1<<10, 1<<18, 1<<10, 1<<12
	img, err := formatImage(t.TempDir(), "kv", core.DeviceConfig(pmem.StrictMode, 1, cfg.opts()...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupKV(genKV(cfg, seed), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.close() })
	return b
}

func TestVerifyCatchesDroppedIncr(t *testing.T) {
	b := smallKV(t, 7)
	w := runAndRecover(t, b)
	ctr := -1
	for c := range b.in.cfg.counters {
		if b.incrAcks[0][c]+b.incrAcks[1][c] > 0 {
			ctr = c
			break
		}
	}
	if ctr < 0 {
		t.Fatal("no INCR was acknowledged")
	}
	// Drop one acknowledged INCR from the recovered store.
	key := keyName(nil, 'c', ctr)
	h := kvserver.HashKey(key)
	b.e.Update(func(tx tm.Tx) uint64 { return b.ix.IncrTx(tx, h, key, -1) })
	expectOneMismatch(t, b, w)
}

func TestVerifyCatchesDroppedSet(t *testing.T) {
	b := smallKV(t, 8)
	w := runAndRecover(t, b)
	for k, s := range b.lastSet {
		pre := b.in.pre[b.in.preOff[k]:b.in.preOff[k+1]]
		if s == 0 {
			continue
		}
		st := &b.in.streams[k%b.in.cfg.conns]
		if op := &st.ops[s-1]; string(st.buf[op.val:op.val+op.vn]) == string(pre) {
			continue
		}
		// Drop the key's last acknowledged SET: restore its preloaded value.
		key := keyName(nil, 'k', k)
		h := kvserver.HashKey(key)
		b.e.Update(func(tx tm.Tx) uint64 { return b.ix.SetTx(tx, h, key, pre) })
		expectOneMismatch(t, b, w)
		return
	}
	t.Fatal("no SET was acknowledged")
}

func TestVerifyCatchesDroppedIncrement(t *testing.T) {
	cfg := txMixConfig()
	cfg.heapWords, cfg.streamOps = 1<<16, 1<<12
	img, err := formatImage(t.TempDir(), "shard", core.DeviceConfig(pmem.StrictMode, 1, cfg.opts()...))
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupTx(cfg, genTx(cfg, 9), img, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	w := runAndRecover(t, b)
	// Drop one acknowledged increment from the recovered store.
	p := b.base[0]
	b.st.UpdateOn(0, func(tx tm.Tx) uint64 { tx.Store(p, tx.Load(p)-1); return 0 })
	expectOneMismatch(t, b, w)
}
