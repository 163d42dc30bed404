package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas"
	"pmwcas/internal/metrics"
	"pmwcas/internal/server"
	"pmwcas/internal/wire"
)

// kv-server: the network surface. An in-process server.Server on
// 127.0.0.1 serves the skip-list (blobkv) backend of a persistent
// two-shard store to two connections, which send 60% GET / 25% PUT / 5%
// DELETE / 10% SCAN (limit 20) over 2^16 codec keys drawn Zipf(1.1).
// The run measures a closed loop first, then an open loop at a fixed
// offered rate (see runKVServer). Connection c writes only keys with
// index ≡ c (mod 2), so its shadow of them is exact; the hot set is
// split evenly, and hot keys of the two connections are neighbours in
// key order.
const (
	kvKeys       = 1 << 16
	kvSize       = 256 << 20
	kvShards     = 2
	kvConns      = 2
	kvRate       = 12000 // open-loop offered requests per second, both connections together
	kvScanLimit  = 20
	kvSmallValue = 64
	kvLargeValue = 1024
	kvSLO        = time.Millisecond
	kvZipfS      = 1.1
	// kvSnap is how many of its own keys following a SCAN's start key a
	// connection snapshots, to check the SCAN's view of them.
	kvSnap = 24
	// kvPipeline bounds the preload's outstanding requests per connection.
	kvPipeline = 64
)

var kvMix = mix{opGet: 60, opUpdate: 25, opDelete: 5, opScan: 10}

// kvOp is one generated request.
type kvOp struct {
	kind opKind
	idx  int
	size int // PUT value size
}

// kvGen is one connection's seeded request stream.
type kvGen struct {
	r *rng
	z *zipf
	c int
}

func newKVGen(seed uint64, c int, z *zipf) *kvGen {
	return &kvGen{r: newRNG(seed, "kv-server", c), z: z, c: c}
}

func (g *kvGen) next() kvOp {
	kind := kvMix.draw(g.r)
	idx := g.z.sample(g.r)
	if kind != opScan {
		idx = idx&^(kvConns-1) | g.c // writes and point reads stay on the connection's own keys
	}
	size := kvSmallValue
	if g.r.below(10) == 0 {
		size = kvLargeValue
	}
	return kvOp{kind: kind, idx: idx, size: size}
}

// kvShadow is one connection's view of its own keys: the version and
// size of the last write it sent, version 0 meaning absent. Requests on
// one connection execute in order, so a reply must match the shadow as
// it stood when the request was sent.
type kvShadow struct {
	ver  []uint32
	size []uint16
}

func newKVShadow() *kvShadow {
	return &kvShadow{ver: make([]uint32, kvKeys), size: make([]uint16, kvKeys)}
}

// expect is what the oracle needs to check one reply.
type expect struct {
	op     kvOp
	ver    uint32
	size   uint16
	snapLo int // first own key index covered by snap
	snap   [kvSnap]uint32
	snapSz [kvSnap]uint16
	conn   int
}

// apply records op in the shadow and returns the reply's expectation.
func (s *kvShadow) apply(op kvOp, conn int) expect {
	e := expect{op: op, ver: s.ver[op.idx], size: s.size[op.idx], conn: conn}
	switch op.kind {
	case opUpdate:
		s.ver[op.idx]++
		if s.ver[op.idx] == 0 {
			s.ver[op.idx] = 1
		}
		s.size[op.idx] = uint16(op.size)
		e.ver, e.size = s.ver[op.idx], s.size[op.idx]
	case opDelete:
		s.ver[op.idx] = 0
	case opScan:
		e.snapLo = op.idx&^(kvConns-1) | conn
		if e.snapLo < op.idx {
			e.snapLo += kvConns
		}
		for i := range e.snap {
			if k := e.snapLo + i*kvConns; k < kvKeys {
				e.snap[i], e.snapSz[i] = s.ver[k], s.size[k]
			}
		}
	}
	return e
}

// kvPair is one SCAN entry, as any layer returned it.
type kvPair struct{ key, val []byte }

// check validates one reply against its expectation. found reports
// whether a GET/DELETE hit; val is a GET's value; entries a SCAN's.
func (e *expect) check(ok, found bool, val []byte, entries []kvPair) string {
	if !ok {
		return "request failed"
	}
	switch e.op.kind {
	case opGet:
		v, vok := kvValueOK(e.op.idx, val)
		if e.ver == 0 {
			if found {
				return fmt.Sprintf("GET k%05d: found version %d (valid %v, %d bytes), want NOT_FOUND", e.op.idx, v, vok, len(val))
			}
			return ""
		}
		if !found || !vok || v != e.ver || len(val) != int(e.size) {
			return fmt.Sprintf("GET k%05d: found %v, version %d (valid %v), %d bytes; want version %d, %d bytes",
				e.op.idx, found, v, vok, len(val), e.ver, e.size)
		}
	case opDelete:
		if found != (e.ver != 0) {
			return fmt.Sprintf("DELETE k%05d: found %v, want %v", e.op.idx, found, e.ver != 0)
		}
	case opScan:
		return e.checkScan(entries)
	}
	return ""
}

func (e *expect) checkScan(entries []kvPair) string {
	if len(entries) > kvScanLimit {
		return fmt.Sprintf("SCAN k%05d: %d entries over the limit", e.op.idx, len(entries))
	}
	prev := -1
	got := map[int]int{} // own key index -> entry position
	for i, p := range entries {
		idx, ok := kvKeyIndex(p.key)
		if !ok || idx < e.op.idx || idx <= prev {
			return fmt.Sprintf("SCAN k%05d: key %q out of order or out of range", e.op.idx, p.key)
		}
		if _, vok := kvValueOK(idx, p.val); !vok {
			return fmt.Sprintf("SCAN k%05d: value under %q is not its key's", e.op.idx, p.key)
		}
		prev = idx
		if idx%kvConns == e.conn {
			got[idx] = i
		}
	}
	if len(entries) == 0 {
		return ""
	}
	for i := range e.snap {
		k := e.snapLo + i*kvConns
		if k > prev || k >= kvKeys {
			break
		}
		pos, found := got[k]
		if found != (e.snap[i] != 0) {
			return fmt.Sprintf("SCAN k%05d: own key k%05d found %v, want %v", e.op.idx, k, found, e.snap[i] != 0)
		}
		if found {
			v, _ := kvValueOK(k, entries[pos].val)
			if v != e.snap[i] || len(entries[pos].val) != int(e.snapSz[i]) {
				return fmt.Sprintf("SCAN k%05d: own key k%05d version %d, want %d", e.op.idx, k, v, e.snap[i])
			}
		}
	}
	return ""
}

// countingConn counts the read and write calls a connection makes: each
// is one system call on a TCP socket.
type countingConn struct {
	net.Conn
	reads, writes atomic.Uint64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// kvClient is one connection's client side: buffered I/O, its seeded
// request stream, its shadow, and scratch buffers reused across requests.
type kvClient struct {
	c      int
	conn   *countingConn
	br     *bufio.Reader
	bw     *bufio.Writer
	gen    *kvGen
	shadow *kvShadow
	sent   uint64 // requests drawn from gen, which the layer replay repeats

	body, key, val, frame []byte
	scratch               []wire.Entry
	pairs                 []kvPair
}

// encode draws the next request, records it in the shadow, and encodes
// it into k.body; it returns what the reply must show, and when the
// wire encoding itself started and ended.
func (k *kvClient) encode(c clock) (exp expect, encS, encE int64) {
	op := k.gen.next()
	k.sent++
	exp = k.shadow.apply(op, k.c)
	k.key = kvKey(k.key, op.idx)
	req := wire.Request{Key: k.key}
	switch op.kind {
	case opGet:
		req.Op = wire.OpGet
	case opUpdate:
		req.Op = wire.OpPut
		k.val = kvValue(k.val, op.idx, exp.ver, op.size)
		req.Value = k.val
	case opDelete:
		req.Op = wire.OpDelete
	case opScan:
		req.Op, req.Limit = wire.OpScan, kvScanLimit
	}
	encS = c.now()
	k.body = wire.AppendRequest(k.body[:0], &req)
	return exp, encS, c.now()
}

// read reads the next reply frame.
func (k *kvClient) read() ([]byte, error) {
	b, err := wire.ReadFrame(k.br, k.frame)
	if err != nil {
		return nil, fmt.Errorf("connection %d: read reply: %w", k.c, err)
	}
	k.frame = b[:cap(b)]
	return b, nil
}

// check decodes a reply frame and checks it against exp; it returns the
// oracle's complaint, or "" for a correct reply.
func (k *kvClient) check(b []byte, exp *expect) (string, error) {
	resp, err := wire.DecodeResponseInto(b, k.scratch)
	if err != nil {
		return "", fmt.Errorf("connection %d: decode reply: %w", k.c, err)
	}
	if cap(resp.Entries) > cap(k.scratch) {
		k.scratch = resp.Entries[:cap(resp.Entries)]
	}
	kind := exp.op.kind
	ok := resp.Status == wire.StatusOK || resp.Status == wire.StatusNotFound && (kind == opGet || kind == opDelete)
	found := resp.Status == wire.StatusOK
	var val []byte
	if kind == opGet && found && len(resp.Entries) == 1 {
		val = resp.Entries[0].Value
	}
	k.pairs = k.pairs[:0]
	for _, e := range resp.Entries {
		k.pairs = append(k.pairs, kvPair{e.Key, e.Value})
	}
	if msg := exp.check(ok, found, val, k.pairs); msg != "" {
		return fmt.Sprintf("connection %d: %s (status %s %s)", k.c, msg, resp.Status, resp.Msg), nil
	}
	return "", nil
}

// roundTrip is one closed-loop request: send, wait for the reply,
// check it. It returns the request's latency class.
func (k *kvClient) roundTrip(rep *report, tr *tracer, c clock) int {
	t0 := c.now()
	exp, encS, encE := k.encode(c)
	b, err := k.send()
	if err == nil {
		b, err = k.read()
	}
	t2 := c.now()
	msg := ""
	if err == nil {
		msg, err = k.check(b, &exp)
	}
	t3 := c.now()
	if err != nil {
		msg = err.Error()
	}
	if msg != "" {
		rep.fail("kv-server %s", msg)
	}
	if tr != nil {
		tr.begin("client.request", t0)
		tr.child("wire.encode", encS, encE)
		tr.child("wire.decode", t2, t3)
		tr.end(t3)
	}
	return exp.op.kind.class()
}

func (k *kvClient) send() ([]byte, error) {
	if err := wire.WriteFrame(k.bw, k.body); err != nil {
		return nil, err
	}
	return nil, k.bw.Flush()
}

// kvState is a serving store with its two client connections.
type kvState struct {
	store   *pmwcas.Store
	srv     *server.Server
	served  chan error
	clients []*kvClient
}

func buildKV(o options, z *zipf) (*kvState, error) {
	store, err := pmwcas.Create(pmwcas.Config{Size: kvSize, Shards: kvShards})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Store: store, Index: server.IndexSkipList})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st := &kvState{store: store, srv: srv, served: make(chan error, 1)}
	go func() { st.served <- srv.Serve(ln) }()
	for c := 0; c < kvConns; c++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			st.teardown()
			return nil, err
		}
		conn := &countingConn{Conn: nc}
		st.clients = append(st.clients, &kvClient{
			c: c, conn: conn, gen: newKVGen(o.seed, c, z), shadow: newKVShadow(),
			br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 64<<10),
		})
	}
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	for _, k := range st.clients {
		wg.Add(1)
		go func(k *kvClient) {
			defer wg.Done()
			errs[k.c] = k.preload(o.seed)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		st.teardown()
		return nil, err
	}
	return st, nil
}

// preloadSize is the seeded size of key idx's preloaded value.
func preloadSize(r *rng) int {
	if r.below(10) == 0 {
		return kvLargeValue
	}
	return kvSmallValue
}

// preload PUTs every key the connection owns, pipelined kvPipeline deep.
func (k *kvClient) preload(seed uint64) error {
	r := newRNG(seed, "kv-preload", k.c)
	inflight := 0
	recv := func() error {
		b, err := k.read()
		if err != nil {
			return err
		}
		resp, err := wire.DecodeResponseInto(b, nil)
		if err != nil {
			return err
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("preload PUT: %s %s", resp.Status, resp.Msg)
		}
		inflight--
		return nil
	}
	for idx := k.c; idx < kvKeys; idx += kvConns {
		size := preloadSize(r)
		k.key = kvKey(k.key, idx)
		k.val = kvValue(k.val, idx, 1, size)
		k.body = wire.AppendRequest(k.body[:0], &wire.Request{Op: wire.OpPut, Key: k.key, Value: k.val})
		if err := wire.WriteFrame(k.bw, k.body); err != nil {
			return err
		}
		k.shadow.ver[idx], k.shadow.size[idx] = 1, uint16(size)
		inflight++
		if inflight == kvPipeline {
			if err := k.bw.Flush(); err != nil {
				return err
			}
			for inflight > kvPipeline/2 {
				if err := recv(); err != nil {
					return err
				}
			}
		}
	}
	if err := k.bw.Flush(); err != nil {
		return err
	}
	for inflight > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// teardown closes the connections and shuts the server down. The store
// stays open for the caller.
func (st *kvState) teardown() error {
	for _, k := range st.clients {
		k.conn.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if serr := <-st.served; serr != nil && err == nil {
		err = serr
	}
	return err
}

// pending is one open-loop request in flight.
type pending struct {
	due int64
	exp expect
}

// openRun is one connection's open-loop traffic.
type openRun struct {
	rec     *windowed
	late    *hist
	sloMiss uint64
	done    uint64 // replies to requests due in the measured windows
	err     error
}

// openLoop offers kvRate requests per second for the schedule's length:
// one sender writes each request when it is due, alternating
// connections, and one receiver per connection times and checks the
// replies in order. A request's latency runs from when it was due, so a
// stall is charged to every request it delays. The sender waits on a
// sleeper (see sleep_linux.go), so its own lateness stays small next to
// the latency it measures.
func (st *kvState) openLoop(rep *report, cl clock, s schedule) ([]*openRun, error) {
	sl, err := newSleeper()
	if err != nil {
		return nil, err
	}
	defer sl.close()
	runs := make([]*openRun, kvConns)
	inflight := make([]chan pending, kvConns)
	var wg sync.WaitGroup
	for c, k := range st.clients {
		runs[c] = &openRun{rec: newWindowed(s.windows), late: newHist()}
		// The channel holds every request sent but not yet answered; it
		// is sized for over a second of backlog at the offered rate, so
		// the sender blocks only if the server stalls for longer.
		inflight[c] = make(chan pending, 1<<14)
		wg.Add(1)
		go func(k *kvClient, run *openRun, in chan pending) {
			defer wg.Done()
			run.err = st.receive(rep, cl, s, k, in, run)
		}(k, runs[c], inflight[c])
	}

	interval := int64(time.Second) / kvRate
	var serr error
	for i := int64(0); serr == nil; i++ {
		due := s.start + i*interval
		if due >= s.end {
			break
		}
		if now := cl.now(); due > now {
			for _, k := range st.clients {
				if serr == nil && k.bw.Buffered() > 0 {
					serr = k.bw.Flush()
				}
			}
			if serr == nil {
				serr = sl.sleep(due - now)
			}
			if serr != nil {
				break
			}
		}
		k := st.clients[i%kvConns]
		exp, encS, _ := k.encode(cl)
		runs[k.c].late.record(encS - due)
		if serr = wire.WriteFrame(k.bw, k.body); serr != nil {
			break
		}
		inflight[k.c] <- pending{due: due, exp: exp}
		// Behind schedule the loop never sleeps; flush now and then so a
		// backlog still reaches the server in bounded batches.
		if i%64 == 63 {
			for _, k := range st.clients {
				if serr == nil {
					serr = k.bw.Flush()
				}
			}
		}
	}
	for c, k := range st.clients {
		if err := k.bw.Flush(); serr == nil {
			serr = err
		}
		close(inflight[c])
	}
	wg.Wait()
	for _, run := range runs {
		if run.err != nil {
			return nil, run.err
		}
	}
	return runs, serr
}

func (st *kvState) receive(rep *report, cl clock, s schedule, k *kvClient, inflight chan pending, run *openRun) error {
	for p := range inflight {
		b, err := k.read()
		if err != nil {
			return err
		}
		msg, err := k.check(b, &p.exp)
		if err != nil {
			return err
		}
		lat := cl.now() - p.due
		if msg != "" {
			rep.fail("kv-server open loop %s", msg)
			lat = max(lat, int64(kvSLO)+1) // a failure misses the latency limit
		}
		if win := s.window(p.due); win >= 0 {
			run.rec.record(win, p.exp.op.kind.class(), lat)
			run.done++
			if lat > int64(kvSLO) {
				run.sloMiss++
			}
		}
	}
	return nil
}

// histDelta is the distribution observed between two snapshots of one
// of the server's own histograms (the ones its METRICS op reports).
func histDelta(a, b metrics.HistSnapshot) metrics.HistSnapshot {
	d := b
	d.Count -= a.Count
	d.Sum -= a.Sum
	for i := range d.Buckets {
		d.Buckets[i] -= a.Buckets[i]
	}
	return d
}

var serverHists = []struct{ metric, hist string }{
	{"server.get_ns_p50", "server_get_ns"},
	{"server.put_ns_p50", "server_put_ns"},
	{"server.scan_ns_p50", "server_scan_ns"},
	{"server.pipeline_depth_p50", "server_pipeline_depth"},
}

// kvMarks are the kv-specific counters read at the traced phase's
// boundaries, next to the store's.
type kvMarks struct {
	hists         []metrics.HistSnapshot
	reads, writes uint64
}

func (st *kvState) marks() kvMarks {
	var m kvMarks
	for _, sh := range serverHists {
		m.hists = append(m.hists, metrics.Default().Histogram(sh.hist).Snapshot())
	}
	for _, k := range st.clients {
		m.reads += k.conn.reads.Load()
		m.writes += k.conn.writes.Load()
	}
	return m
}

// runKVServer measures the served store twice over. A closed loop — each
// connection sends its next request when the previous reply arrives —
// gives the end-to-end figures and the traced layer figures. An open
// loop at a fixed offered rate then shows queueing: its latencies, SLO
// misses and the generator's lateness are printed, not gated, because
// on a shared two-vCPU host they follow the host's CPU steal more than
// the program (see README.md).
func runKVServer(o options) (*report, error) {
	rep := newReport()
	peak := 0.0
	z := newZipf(kvKeys, kvZipfS, o.seed)
	st, setup, err := timedSetups(5, func() (*kvState, error) { return buildKV(o, z) },
		func(st *kvState) {
			st.teardown()
			st.store.Close()
		}, &peak)
	if err != nil {
		return nil, err
	}
	c := clock{epoch: time.Now()}
	s := newSchedule(c, warmup, o.seconds, o.trace)
	var m0, m1 kvMarks
	cl := runClosedLoop(c, s, o, kvConns, st.store, func(w int, tr *tracer, c clock) int {
		return st.clients[w].roundTrip(rep, tr, c)
	}, func(end bool) {
		if end {
			m1 = st.marks()
		} else {
			m0 = st.marks()
		}
	})

	ol := newSchedule(c, window, max(o.seconds/2, 1), false)
	runs, err := st.openLoop(rep, c, ol)
	if err != nil {
		return nil, err
	}
	var measured, sloMiss uint64
	lateAll := newHist()
	var recs []*windowed
	for _, run := range runs {
		measured += run.done
		sloMiss += run.sloMiss
		lateAll.merge(run.late)
		recs = append(recs, run.rec)
	}
	rep.attempted += kvKeys // the preload's PUTs
	for _, k := range st.clients {
		rep.attempted += k.sent
	}
	lateP99 := lateAll.quantile(tailQuantile(lateAll.n, 0.99, 10)) / 1e3
	peak = max(peak, liveHeapMiB())
	if err := st.teardown(); err != nil {
		return nil, err
	}

	// Durability: the recovered blob store must hold exactly the keys
	// each connection last wrote, with the values it wrote.
	if err := st.store.Close(); err != nil {
		return nil, err
	}
	recoverS, rst, err := recoverTimed(st.store, recoveries)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := st.store.CheckInvariants(pmwcas.CheckOptions{Blob: true})
	checkS := time.Since(t0).Seconds()
	live := 0
	if err != nil {
		rep.fail("kv-server invariants after recovery: %v", err)
	} else {
		for idx := 0; idx < kvKeys; idx++ {
			sh := st.clients[idx%kvConns].shadow
			key := string(kvKey(nil, idx))
			v, ok := ds.Blobs[key]
			if sh.ver[idx] != 0 {
				live++
			}
			ver, vok := kvValueOK(idx, v)
			if ok != (sh.ver[idx] != 0) || ok && (!vok || ver != sh.ver[idx] || len(v) != int(sh.size[idx])) {
				rep.fail("kv-server durable %s: present %v version %d; acknowledged version %d", key, ok, ver, sh.ver[idx])
			}
		}
		if len(ds.Blobs) != live {
			rep.fail("kv-server durable store holds %d keys, acknowledged %d", len(ds.Blobs), live)
		}
	}
	peak = max(peak, liveHeapMiB())

	closedLoopMetrics(rep, o, cl, s, setup, recoverS, peak)
	v := rep.values
	if !o.trace {
		open, _ := summarize(recs, float64(ol.windowNs)/1e9, 0.99)
		rep.extra = append(rep.extra,
			metric{"open.offered_ops_s", "ops/s", kvRate},
			metric{"open.read_p50_us", "us", open[classRead].p50 / 1e3},
			metric{"open.read_p99_us", "us", open[classRead].tail / 1e3},
			metric{"open.write_p50_us", "us", open[classWrite].p50 / 1e3},
			metric{"open.write_p99_us", "us", open[classWrite].tail / 1e3},
			metric{"open.slo_miss_share", "ratio", float64(sloMiss) / float64(max(measured, 1))},
			metric{"open.late_p99_us", "us", lateP99})
		return rep, nil
	}

	v["bench.late_p99_us"] = lateP99
	v["alloc.bytes_per_live_key"] = float64(st.store.Stats().AllocBytes) / float64(max(live, 1))
	v["store.shard_skew"] = shardSkew(st.store, st.clients)
	recoveryMetrics(rep, rst, checkS)
	for i, sh := range serverHists {
		d := histDelta(m0.hists[i], m1.hists[i])
		v[sh.metric] = float64(d.Quantile(0.5))
	}
	v["client.write_calls_per_op"] = float64(m1.writes-m0.writes) / float64(max(cl.tracedN, 1))
	v["client.read_calls_per_op"] = float64(m1.reads-m0.reads) / float64(max(cl.tracedN, 1))
	v["wire.encode_ns_p50"] = selfP50(cl.tracers, "wire.encode")
	v["wire.decode_ns_p50"] = selfP50(cl.tracers, "wire.decode")
	v["client.request_self_ns_p50"] = selfP50(cl.tracers, "client.request")

	// The layer replay: the same request streams, straight into blobkv
	// handles on a fresh, identically configured store.
	replay, err := replayBlobKV(rep, o, z, st.clients)
	if err != nil {
		return nil, err
	}
	for _, k := range []opKind{opGet, opUpdate, opDelete, opScan} {
		v[blobSpanNames[k]+"_ns_p50"] = selfP50(replay, blobSpanNames[k])
	}
	return rep, writeSpans(spanPath(o), append(cl.tracers, replay...))
}

// shardSkew is the max/min ratio of the live keys per shard (the server
// routes by Store.ShardForKey).
func shardSkew(store *pmwcas.Store, clients []*kvClient) float64 {
	per := make([]uint64, store.ShardCount())
	for idx := 0; idx < kvKeys; idx++ {
		if clients[idx%kvConns].shadow.ver[idx] != 0 {
			k, err := pmwcas.EncodeKey(kvKey(nil, idx))
			if err == nil {
				per[store.ShardForKey(k)]++
			}
		}
	}
	return skew(per)
}

var blobSpanNames = [nOpKinds]string{
	opGet: "blobkv.get", opUpdate: "blobkv.put", opDelete: "blobkv.delete", opScan: "blobkv.scan",
}

var scanCeiling = bytes.Repeat([]byte{0xff}, 7)

// replayBlobKV sends each connection's request stream — regenerated from
// the seed, as many requests as the connection sent — straight to blobkv
// handles on a fresh store configured and preloaded like the served one,
// routing point ops by Store.ShardForKey and merging SCANs across shards
// as the server does. It checks every result with the same oracle and
// returns one tracer per stream holding blobkv spans.
func replayBlobKV(rep *report, o options, z *zipf, clients []*kvClient) ([]*tracer, error) {
	store, err := pmwcas.Create(pmwcas.Config{Size: kvSize, Shards: kvShards})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	handles := make([][]*pmwcas.BlobKVHandle, kvConns) // [stream][shard]
	for sh := 0; sh < kvShards; sh++ {
		kv, err := store.Shard(sh).BlobKV()
		if err != nil {
			return nil, err
		}
		for c := range handles {
			handles[c] = append(handles[c], kv.NewHandle(int64(c)+1))
		}
	}
	route := func(key []byte) int {
		k, err := pmwcas.EncodeKey(key)
		if err != nil {
			return 0
		}
		return store.ShardForKey(k)
	}
	cl := clock{epoch: time.Now()}
	trs := make([]*tracer, kvConns)
	errs := make([]error, kvConns)
	var wg sync.WaitGroup
	for c := 0; c < kvConns; c++ {
		trs[c] = newTracer(kvConns+c, 1<<16)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			shadow := newKVShadow()
			pr := newRNG(o.seed, "kv-preload", c)
			var key, val []byte
			for idx := c; idx < kvKeys; idx += kvConns {
				size := preloadSize(pr)
				key = kvKey(key, idx)
				val = kvValue(val, idx, 1, size)
				if err := handles[c][route(key)].Put(key, val); err != nil {
					errs[c] = fmt.Errorf("replay preload: %w", err)
					return
				}
				shadow.ver[idx], shadow.size[idx] = 1, uint16(size)
			}
			gen := newKVGen(o.seed, c, z)
			var pairs, merged []kvPair
			var got []byte
			for i := uint64(0); i < clients[c].sent; i++ {
				op := gen.next()
				exp := shadow.apply(op, c)
				key = kvKey(key, op.idx)
				h := handles[c][route(key)]
				ok, found := true, false
				var err error
				t0 := cl.now()
				switch op.kind {
				case opGet:
					got, err = h.GetAppend(key, got[:0])
					found, ok = err == nil, err == nil || errors.Is(err, pmwcas.ErrBlobNotFound)
				case opUpdate:
					val = kvValue(val, op.idx, exp.ver, op.size)
					ok = h.Put(key, val) == nil
				case opDelete:
					found = h.Delete(key) == nil
				case opScan:
					merged = merged[:0]
					for _, sh := range handles[c] {
						pairs = pairs[:0]
						err := sh.Scan(key, scanCeiling, func(k, v []byte) bool {
							pairs = append(pairs, kvPair{append([]byte(nil), k...), v})
							return len(pairs) < kvScanLimit
						})
						ok = ok && err == nil
						merged = append(merged, pairs...)
					}
					slices.SortFunc(merged, func(a, b kvPair) int { return bytes.Compare(a.key, b.key) })
					merged = merged[:min(len(merged), kvScanLimit)]
				}
				t1 := cl.now()
				trs[c].begin("replay.request", t0)
				trs[c].child(blobSpanNames[op.kind], t0, t1)
				trs[c].end(t1)
				if msg := exp.check(ok, found, got, merged); msg != "" {
					rep.fail("kv-server replay stream %d: %s", c, msg)
				}
				rep.mu.Lock()
				rep.attempted++
				rep.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return trs, errors.Join(errs...)
}
