package main

import (
	"errors"
	"fmt"
	"time"

	"pmwcas"
)

// bwtree-churn: writes beside reads. Two closed-loop workers run 40% Get
// / 25% Insert / 25% Delete / 5% Update / 5% Scan (32 keys) over 2^17
// uniform keys, half preloaded, on a persistent one-shard Bw-tree with
// merging on, so splits, merges and consolidations all run. Worker w
// owns the keys with index ≡ w (mod 2): pages stay shared, but each
// worker's shadow of its own keys is exact.
const (
	bwKeys       = 1 << 17
	bwSize       = 256 << 20
	bwWorkers    = 2
	bwScanLen    = 32
	bwMergeBelow = 16
)

var bwMix = mix{opGet: 40, opInsert: 25, opDelete: 25, opUpdate: 5, opScan: 5}

type bwState struct {
	store   *pmwcas.Store
	handles []*pmwcas.BwTreeHandle
	shadow  []uint64 // value per key index, 0 = absent; written only by the owner
	seq     []uint32 // per-worker write sequence, the version in written values
}

func bwKey(idx int) uint64 { return uint64(idx) + 1 }

func buildBwTree(o options) (*bwState, error) {
	store, err := pmwcas.Create(pmwcas.Config{Size: bwSize})
	if err != nil {
		return nil, err
	}
	tree, err := store.BwTree(pmwcas.BwTreeOptions{MergeBelow: bwMergeBelow})
	if err != nil {
		return nil, err
	}
	st := &bwState{store: store, shadow: make([]uint64, bwKeys), seq: make([]uint32, bwWorkers)}
	for w := 0; w < bwWorkers; w++ {
		st.handles = append(st.handles, tree.NewHandle())
	}
	// One goroutine preloads, in a seeded order: two concurrent
	// preloaders growing the tree from empty can spin in Insert
	// indefinitely (a Bw-tree defect). The measured phase keeps two
	// concurrent workers.
	coin := newRNG(o.seed, "bwtree-present", 0)
	for _, idx := range ownedOrder(o.seed, "bwtree-preload", 0, bwKeys, 1) {
		if coin.below(2) == 0 {
			continue
		}
		k := bwKey(idx)
		v := wordValue(k, 1)
		if err := st.handles[idx%bwWorkers].Insert(k, v); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", k, err)
		}
		st.shadow[idx] = v
	}
	return st, nil
}

// collector gathers one scan's entries. Its visitor is built once per
// worker, so a scan costs the benchmark no allocation.
type collector struct {
	out   []pmwcas.BwTreeEntry
	visit func(pmwcas.BwTreeEntry) bool
}

func newCollector() *collector {
	c := &collector{out: make([]pmwcas.BwTreeEntry, 0, bwScanLen)}
	c.visit = func(e pmwcas.BwTreeEntry) bool {
		c.out = append(c.out, e)
		return len(c.out) < bwScanLen
	}
	return c
}

// bwSpanNames are the traced layer calls, by op kind.
var bwSpanNames = func() (n [nOpKinds]string) {
	for k := range n {
		n[k] = "bwtree." + opNames[k]
	}
	return n
}()

// op runs one operation of worker w and checks it against the shadow.
func (st *bwState) op(rep *report, r *rng, w int, tr *tracer, c clock, col *collector) opKind {
	kind := bwMix.draw(r)
	idx := int(r.below(bwKeys/bwWorkers))*bwWorkers + w
	k := bwKey(idx)
	h := st.handles[w]
	want := st.shadow[idx]
	var t0 int64
	if tr != nil {
		t0 = c.now()
		tr.begin("bwtree-churn.op", t0)
	}
	var err error
	var got uint64
	switch kind {
	case opGet:
		got, err = h.Get(k)
	case opInsert, opUpdate:
		st.seq[w]++
		got = wordValue(k, st.seq[w])
		if kind == opInsert {
			err = h.Insert(k, got)
		} else {
			err = h.Update(k, got)
		}
	case opDelete:
		err = h.Delete(k)
	case opScan:
		col.out = col.out[:0]
		err = h.Scan(k, pmwcas.MaxBwTreeKey, col.visit)
	}
	if tr != nil {
		t1 := c.now()
		tr.child(bwSpanNames[kind], t0, t1)
		tr.end(t1)
	}

	present := want != 0
	switch kind {
	case opGet:
		if present && (err != nil || got != want) || !present && !errors.Is(err, pmwcas.ErrBwTreeNotFound) {
			rep.fail("bwtree get key %d: got %#x, %v; want %#x", k, got, err, want)
		}
	case opInsert:
		if present && !errors.Is(err, pmwcas.ErrBwTreeKeyExists) || !present && err != nil {
			rep.fail("bwtree insert key %d (present %v): %v", k, present, err)
		} else if !present {
			st.shadow[idx] = got
		}
	case opUpdate:
		if present && err != nil || !present && !errors.Is(err, pmwcas.ErrBwTreeNotFound) {
			rep.fail("bwtree update key %d (present %v): %v", k, present, err)
		} else if present {
			st.shadow[idx] = got
		}
	case opDelete:
		if present && err != nil || !present && !errors.Is(err, pmwcas.ErrBwTreeNotFound) {
			rep.fail("bwtree delete key %d (present %v): %v", k, present, err)
		} else {
			st.shadow[idx] = 0
		}
	case opScan:
		if err != nil {
			rep.fail("bwtree scan from %d: %v", k, err)
		} else if msg := st.checkScan(idx, col.out); msg != "" {
			rep.fail("bwtree scan from %d: %s", k, msg)
		}
	}
	return kind
}

// checkScan verifies a scan from key index idx: keys ascend from the
// start key, every value belongs to its key, and between the start and
// the last key returned the worker's own keys are exactly its shadow.
func (st *bwState) checkScan(idx int, got []pmwcas.BwTreeEntry) string {
	prev := uint64(0)
	for _, e := range got {
		if e.Key < bwKey(idx) || e.Key <= prev || e.Key > bwKeys || !wordValueOK(e.Key, e.Value) {
			return fmt.Sprintf("entry %d=%#x out of order, out of range or not its key's value", e.Key, e.Value)
		}
		prev = e.Key
	}
	if len(got) == 0 {
		return ""
	}
	last := int(got[len(got)-1].Key) - 1
	j := 0
	for i := idx; i <= last; i += bwWorkers {
		for j < len(got) && int(got[j].Key)-1 < i {
			j++
		}
		found := j < len(got) && int(got[j].Key)-1 == i
		if want := st.shadow[i]; want != 0 && (!found || got[j].Value != want) || want == 0 && found {
			return fmt.Sprintf("own key %d: scan found %v, shadow holds %#x", bwKey(i), found, want)
		}
	}
	return ""
}

func runBwTreeChurn(o options) (*report, error) {
	rep := newReport()
	peak := 0.0
	st, setup, err := timedSetups(5, func() (*bwState, error) { return buildBwTree(o) },
		func(*bwState) {}, &peak)
	if err != nil {
		return nil, err
	}
	for _, v := range st.shadow {
		if v != 0 {
			rep.attempted++ // the preload's inserts
		}
	}
	rngs := make([]*rng, bwWorkers)
	cols := make([]*collector, bwWorkers)
	for w := range rngs {
		rngs[w] = newRNG(o.seed, "bwtree-churn", w)
		cols[w] = newCollector()
	}
	c := clock{epoch: time.Now()}
	s := newSchedule(c, warmup, o.seconds, o.trace)
	cl := runClosedLoop(c, s, o, bwWorkers, st.store, func(w int, tr *tracer, c clock) int {
		return st.op(rep, rngs[w], w, tr, c, cols[w]).class()
	}, nil)
	rep.attempted += cl.ops
	peak = max(peak, liveHeapMiB())

	// Durability: every acknowledged write must survive the crash, so the
	// recovered tree must equal the union of the workers' shadows.
	if err := st.store.Close(); err != nil {
		return nil, err
	}
	recoverS, rst, err := recoverTimed(st.store, recoveries)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ds, err := st.store.CheckInvariants(pmwcas.CheckOptions{})
	checkS := time.Since(t0).Seconds()
	live := 0
	if err != nil {
		rep.fail("bwtree invariants after recovery: %v", err)
	} else {
		var msgs []string
		live, msgs = bwDurableDiff(st.shadow, ds.BwTree)
		for _, m := range msgs {
			rep.fail("%s", m)
		}
	}
	peak = max(peak, liveHeapMiB())

	closedLoopMetrics(rep, o, cl, s, setup, recoverS, peak)
	if o.trace {
		rep.values["store.shard_skew"] = 1
		for _, k := range []opKind{opGet, opInsert, opDelete, opScan} {
			rep.values[bwSpanNames[k]+"_ns_p50"] = selfP50(cl.tracers, bwSpanNames[k])
		}
		recoveryMetrics(rep, rst, checkS)
		rep.values["alloc.bytes_per_live_key"] = float64(st.store.Stats().AllocBytes) / float64(max(live, 1))
		if err := writeSpans(spanPath(o), cl.tracers); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// bwDurableDiff compares the recovered tree with the union of the
// workers' shadows: every acknowledged write must have survived, and
// nothing else may be there. It returns the acknowledged live key count
// and one message per mismatch.
func bwDurableDiff(shadow []uint64, durable []pmwcas.BwTreeEntry) (live int, msgs []string) {
	got := make(map[uint64]uint64, len(durable))
	for _, e := range durable {
		got[e.Key] = e.Value
	}
	for idx, want := range shadow {
		v, ok := got[bwKey(idx)]
		if want != 0 {
			live++
		}
		if want != 0 && (!ok || v != want) || want == 0 && ok {
			msgs = append(msgs, fmt.Sprintf("bwtree durable key %d = %#x (present %v), acknowledged %#x", bwKey(idx), v, ok, want))
		}
	}
	if len(got) != live {
		msgs = append(msgs, fmt.Sprintf("bwtree durable tree holds %d keys, acknowledged %d", len(got), live))
	}
	return live, msgs
}
