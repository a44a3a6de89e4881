package main

// The kv-write and kv-read workloads: the durable KV service as
// `onefile-kv -file` runs it (OF-LF-PTM, Strict mode, a filedev device,
// a metrics registry attached), in process on loopback TCP, driven by a
// closed loop of pipelined RESP commands.
//
// Each connection owns the SET keys whose id is congruent to its index, so
// the last acknowledged SET of every key is known exactly and the recovered
// value can be checked byte for byte. INCR counters are shared: each
// must end equal to the number of INCRs acknowledged on it.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"onefile"
	"onefile/internal/core"
	"onefile/internal/kvserver"
	"onefile/internal/tm"
)

type kvConfig struct {
	keys      int     // preloaded keys
	counters  int     // hot INCR counters, also preloaded
	heapWords int     // transactional heap
	buckets   int     // index buckets
	zipf      float64 // key skew exponent; 0 = uniform
	mix       [numOps]int
	conns     int
	depth     int // commands in flight per connection
	streamOps int // ops generated per connection; the stream repeats
	scanCount int
}

func kvWriteConfig() kvConfig {
	c := kvConfig{
		keys: 1 << 16, counters: 64, heapWords: 1 << 22, buckets: 1 << 20, zipf: 1.1,
		conns: 2, depth: 16, streamOps: 1 << 18, scanCount: 20,
	}
	c.mix[opSet], c.mix[opIncr], c.mix[opGet] = 60, 30, 10
	return c
}

func kvReadConfig() kvConfig {
	c := kvConfig{
		keys: 1 << 18, heapWords: 1 << 23, buckets: 1 << 20,
		conns: 2, depth: 16, streamOps: 1 << 18, scanCount: 20,
	}
	c.mix[opGet], c.mix[opScan], c.mix[opSet] = 90, 5, 5
	return c
}

// kvOp is one generated command.
type kvOp struct {
	kind     uint8
	id       int32 // key or counter id
	off, end int32 // encoded command in the stream buffer
	val, vn  int32 // SET: the value's offset and length in the buffer
}

type kvStream struct {
	buf []byte
	ops []kvOp
}

// kvInputs is everything generated from the seed before set-up.
type kvInputs struct {
	cfg     kvConfig
	streams []kvStream
	pre     []byte  // preload values, back to back
	preOff  []int32 // key i's preload value is pre[preOff[i]:preOff[i+1]]
}

func keyName(dst []byte, prefix byte, id int) []byte {
	dst = append(dst, prefix, ':')
	s := strconv.Itoa(id)
	for i := len(s); i < 6; i++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

// appendValue appends a value of one to three words whose bytes spell
// tag and id, so different writes of a key differ.
func appendValue(dst []byte, rng *rand.Rand, tag uint64, id int) []byte {
	words := 1 + rng.Intn(3)
	n := 8*words - rng.Intn(8)
	pat := strconv.AppendInt(append(strconv.AppendUint(nil, tag, 36), '.'), int64(id), 36)
	for i := 0; i < n; i++ {
		dst = append(dst, pat[i%len(pat)])
	}
	return dst
}

func genKV(cfg kvConfig, seed int64) *kvInputs {
	in := &kvInputs{cfg: cfg, preOff: make([]int32, 0, cfg.keys+1)}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < cfg.keys; k++ {
		in.preOff = append(in.preOff, int32(len(in.pre)))
		in.pre = appendValue(in.pre, rng, 0, k)
	}
	in.preOff = append(in.preOff, int32(len(in.pre)))

	// Hot keys are spread over the id space by a seeded permutation.
	owned := cfg.keys / cfg.conns
	perm := rng.Perm(owned)
	var kbuf []byte
	for c := 0; c < cfg.conns; c++ {
		r := rand.New(rand.NewSource(seed*1000 + int64(c) + 1))
		var z *rand.Zipf
		if cfg.zipf > 0 {
			z = rand.NewZipf(r, cfg.zipf, 1, uint64(owned-1))
		}
		// pick returns a key id owned by connection c (SET) or any key.
		pick := func(mine bool) int {
			var i int
			if z != nil {
				i = perm[z.Uint64()]
			} else {
				i = r.Intn(owned)
			}
			if mine {
				return i*cfg.conns + c
			}
			return i*cfg.conns + r.Intn(cfg.conns)
		}
		st := kvStream{ops: make([]kvOp, cfg.streamOps)}
		for i := range st.ops {
			op := &st.ops[i]
			op.off = int32(len(st.buf))
			x := r.Intn(100)
			switch {
			case x < cfg.mix[opGet]:
				op.kind, op.id = opGet, int32(pick(false))
				kbuf = keyName(kbuf[:0], 'k', int(op.id))
				st.buf = appendCommand(st.buf, []byte("GET"), kbuf)
			case x < cfg.mix[opGet]+cfg.mix[opSet]:
				op.kind, op.id = opSet, int32(pick(true))
				kbuf = keyName(kbuf[:0], 'k', int(op.id))
				val := appendValue(nil, r, uint64(i+1), int(op.id))
				st.buf = appendCommand(st.buf, []byte("SET"), kbuf, val)
				op.vn = int32(len(val))
				op.val = int32(len(st.buf)) - op.vn - 2
			case x < cfg.mix[opGet]+cfg.mix[opSet]+cfg.mix[opIncr]:
				op.kind, op.id = opIncr, int32(r.Intn(cfg.counters))
				kbuf = keyName(kbuf[:0], 'c', int(op.id))
				st.buf = appendCommand(st.buf, []byte("INCR"), kbuf)
			default:
				op.kind = opScan
				cursor := strconv.Itoa(r.Intn(cfg.buckets))
				st.buf = appendCommand(st.buf, []byte("SCAN"), []byte(cursor),
					[]byte("COUNT"), []byte(strconv.Itoa(cfg.scanCount)))
			}
			op.end = int32(len(st.buf))
		}
		in.streams = append(in.streams, st)
	}
	return in
}

// kvBench is one set-up instance of a KV workload.
type kvBench struct {
	in      *kvInputs
	opts    []tm.Option
	dev     *memDevice
	e       *core.Engine
	ix      *kvserver.Index
	srv     *kvserver.Server
	served  chan error
	clients []*respConn

	// Acknowledged state.
	lastSet  []int32   // per key: 1 + stream index of its last acknowledged SET; 0 = preload value
	incrAcks [][]int64 // per connection, per counter: acknowledged INCRs
}

func (c kvConfig) opts() []tm.Option { return []tm.Option{tm.WithHeapWords(c.heapWords)} }

func setupKV(in *kvInputs, img *deviceImage, t *tracer) (_ *kvBench, err error) {
	cfg := in.cfg
	b := &kvBench{
		in:      in,
		opts:    cfg.opts(),
		ix:      kvserver.NewIndex(cfg.buckets),
		lastSet: make([]int32, cfg.keys),
	}
	for range cfg.conns {
		b.incrAcks = append(b.incrAcks, make([]int64, cfg.counters))
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	b.dev, err = img.open("kv")
	if err != nil {
		return nil, err
	}
	b.e, err = core.NewPersistentLF(wrapDevice(b.dev, t), false, b.opts...)
	if err != nil {
		return nil, err
	}
	reg := onefile.NewMetricsRegistry()
	onefile.RegisterMetrics(reg, b.e)
	var be kvserver.Backend = kvserver.EngineBackend{E: b.e}
	if t != nil {
		be = tracedBackend{Backend: be, t: t}
	}
	b.srv = kvserver.NewServer(be, b.ix, reg)
	if err := b.srv.Init(); err != nil {
		return nil, err
	}
	if err := b.preload(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	for range cfg.conns {
		c, err := dialRESP(ln.Addr().String())
		if err != nil {
			return nil, err
		}
		b.clients = append(b.clients, c)
	}
	return b, nil
}

// preload writes every key and counter through the combiner's batch API,
// the engine's bulk-load path.
func (b *kvBench) preload() error {
	cfg := b.in.cfg
	const chunk = 1024
	var fns []func(tm.Tx) uint64
	flush := func() error {
		for _, r := range tm.Batch(b.e, fns) {
			if r.Err != nil {
				return fmt.Errorf("preload: %w", r.Err)
			}
		}
		fns = fns[:0]
		return nil
	}
	add := func(key, val []byte) error {
		h := kvserver.HashKey(key)
		fns = append(fns, func(tx tm.Tx) uint64 { return b.ix.SetTx(tx, h, key, val) })
		if len(fns) == chunk {
			return flush()
		}
		return nil
	}
	for k := 0; k < cfg.keys; k++ {
		if err := add(keyName(nil, 'k', k), b.in.pre[b.in.preOff[k]:b.in.preOff[k+1]]); err != nil {
			return err
		}
	}
	for c := 0; c < cfg.counters; c++ {
		if err := add(keyName(nil, 'c', c), []byte("0")); err != nil {
			return err
		}
	}
	return flush()
}

func (b *kvBench) counters() layerCounters {
	return layerCounters{tm: b.e.Stats()}
}

// drive runs every connection's closed loop until the window ends.
func (b *kvBench) drive(clk clock, prog []progress) *window {
	return runClients(len(b.clients), func(c int) *window { return b.client(c, clk, &prog[c].n) })
}

func (b *kvBench) client(c int, clk clock, done *atomic.Uint64) *window {
	cfg := b.in.cfg
	cl, st := b.clients[c], &b.in.streams[c]
	acks := b.incrAcks[c]
	lastIncr := make([]int64, cfg.counters)
	w := &window{}
	pos := 0
	for time.Now().Before(clk.end) {
		for i := 0; i < cfg.depth; i++ {
			op := &st.ops[(pos+i)%len(st.ops)]
			cl.w.Write(st.buf[op.off:op.end])
		}
		sent := time.Now()
		if err := cl.w.Flush(); err != nil {
			w.attempted += uint64(cfg.depth)
			w.fail("conn %d: send: %v", c, err)
			return w
		}
		for i := 0; i < cfg.depth; i++ {
			idx := (pos + i) % len(st.ops)
			op := &st.ops[idx]
			v, err := cl.recv()
			w.attempted++
			if err != nil {
				w.attempted += uint64(cfg.depth - i - 1)
				w.fail("conn %d: receive: %v", c, err)
				return w
			}
			if v.kind == '-' {
				w.fail("%s: error reply %q", opNames[op.kind], v.bulk)
				continue
			}
			ok := false
			switch op.kind {
			case opGet:
				ok = v.kind == '$' && !v.null && len(v.bulk) > 0
			case opSet:
				ok = v.kind == '+' && string(v.bulk) == "OK"
				if ok {
					b.lastSet[op.id] = int32(idx + 1)
				}
			case opIncr:
				ok = v.kind == ':' && v.n > lastIncr[op.id]
				if ok {
					lastIncr[op.id] = v.n
					acks[op.id]++
				}
			case opScan:
				ok = validScan(v)
			}
			if !ok {
				w.fail("%s: unexpected reply kind %q %q", opNames[op.kind], v.kind, v.bulk)
				continue
			}
			w.record(clk, int(op.kind), sent)
		}
		done.Store(w.ops)
		pos = (pos + cfg.depth) % len(st.ops)
	}
	return w
}

// validScan checks a SCAN reply's shape: [cursor, [key...]] with every
// key one the workload created.
func validScan(v *respValue) bool {
	if v.kind != '*' || v.n != 2 || v.elems[0].kind != '$' || v.elems[1].kind != '*' {
		return false
	}
	if _, err := strconv.ParseUint(string(v.elems[0].bulk), 10, 64); err != nil {
		return false
	}
	for _, k := range v.elems[1].elems[:v.elems[1].n] {
		if k.kind != '$' || len(k.bulk) != 8 || (k.bulk[0] != 'k' && k.bulk[0] != 'c') || k.bulk[1] != ':' {
			return false
		}
	}
	return true
}

// quiesce stops the server after every reply is written, then closes the
// engine, leaving the device idle.
func (b *kvBench) quiesce() error { return errors.Join(b.stopServer(), b.e.Close()) }

// stopServer closes the client connections and shuts the server down
// once every reply is written.
func (b *kvBench) stopServer() error {
	for _, c := range b.clients {
		c.close()
	}
	b.clients = nil
	if b.served == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; err == nil {
		err = serr
	}
	b.served = nil
	return err
}

// crashAttach simulates a power failure and re-attaches a fresh engine to
// the device, which runs the engine's recovery. It returns the time the
// crash and re-attach took.
func (b *kvBench) crashAttach() (time.Duration, error) {
	if err := b.e.Close(); err != nil {
		return 0, err
	}
	b.e = nil
	runtime.GC() // a restarted process would not hold the old engine
	start := time.Now()
	b.dev.Crash()
	e, err := core.NewPersistentLF(b.dev, true, b.opts...)
	if err != nil {
		return 0, fmt.Errorf("re-attach: %w", err)
	}
	b.e = e
	return time.Since(start), nil
}

// verify compares the recovered store with the acknowledged operations
// and returns one line per mismatch.
func (b *kvBench) verify() []string {
	cfg := b.in.cfg
	var bad []string
	if n := b.e.Read(b.ix.CountTx); n != uint64(cfg.keys+cfg.counters) {
		bad = append(bad, fmt.Sprintf("DBSIZE %d, want %d", n, cfg.keys+cfg.counters))
	}
	for ctr := 0; ctr < cfg.counters; ctr++ {
		var want int64
		for c := range b.incrAcks {
			want += b.incrAcks[c][ctr]
		}
		got, ok := b.get(keyName(nil, 'c', ctr))
		if !ok || string(got) != strconv.FormatInt(want, 10) {
			bad = append(bad, fmt.Sprintf("counter %d = %q (present %v), want %d acknowledged INCRs", ctr, got, ok, want))
		}
	}
	for k := 0; k < cfg.keys; k++ {
		want := b.in.pre[b.in.preOff[k]:b.in.preOff[k+1]]
		if s := b.lastSet[k]; s > 0 {
			st := &b.in.streams[k%cfg.conns]
			op := &st.ops[s-1]
			want = st.buf[op.val : op.val+op.vn]
		}
		got, ok := b.get(keyName(nil, 'k', k))
		if !ok || string(got) != string(want) {
			bad = append(bad, fmt.Sprintf("key %d = %q (present %v), want %q", k, got, ok, want))
		}
	}
	return bad
}

func (b *kvBench) get(key []byte) (val []byte, ok bool) {
	h := kvserver.HashKey(key)
	b.e.Read(func(tx tm.Tx) uint64 {
		val, ok = b.ix.GetTx(tx, h, key)
		return 0
	})
	return val, ok
}

func (b *kvBench) close() error {
	err := b.stopServer()
	if b.e != nil {
		err = errors.Join(err, b.e.Close())
	}
	if b.dev != nil {
		err = errors.Join(err, b.dev.Close())
	}
	return err
}
