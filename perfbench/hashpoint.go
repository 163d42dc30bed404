package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"pmwcas"
)

// hash-point: the point-op PMwCAS read path. Two closed-loop workers
// run 90% Get / 10% Update over 2^20 preloaded uniform keys on a
// persistent two-shard store, routed by Store.ShardForKey. Worker w owns
// the keys with index ≡ w (mod 2), so its shadow of their values is
// exact and every Get is checked against it.
const (
	hashKeys    = 1 << 20
	hashSize    = 256 << 20
	hashShards  = 2
	hashWorkers = 2
)

var hashMix = mix{opGet: 90, opUpdate: 10}

type hashState struct {
	store   *pmwcas.Store
	handles [][]*pmwcas.HashTableHandle // [worker][shard]
	shadow  []uint64                    // value per key index; written only by the owner
}

func hashKey(idx int) uint64 { return uint64(idx) + 1 }

func buildHash(o options) (*hashState, error) {
	store, err := pmwcas.Create(pmwcas.Config{Size: hashSize, Shards: hashShards})
	if err != nil {
		return nil, err
	}
	st := &hashState{store: store, shadow: make([]uint64, hashKeys)}
	for w := 0; w < hashWorkers; w++ {
		var hs []*pmwcas.HashTableHandle
		for s := 0; s < hashShards; s++ {
			t, err := store.Shard(s).HashTable(pmwcas.HashTableOptions{})
			if err != nil {
				return nil, err
			}
			hs = append(hs, t.NewHandle())
		}
		st.handles = append(st.handles, hs)
	}
	// Preload in parallel, each worker its own keys, in a seeded order.
	errs := make([]error, hashWorkers)
	var wg sync.WaitGroup
	for w := 0; w < hashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			order := ownedOrder(o.seed, "hash-preload", w, hashKeys, hashWorkers)
			for _, idx := range order {
				k := hashKey(idx)
				v := wordValue(k, 1)
				if err := st.handles[w][store.ShardForKey(k)].Insert(k, v); err != nil {
					errs[w] = fmt.Errorf("preload key %d: %w", k, err)
					return
				}
				st.shadow[idx] = v
			}
		}(w)
	}
	wg.Wait()
	return st, errors.Join(errs...)
}

// ownedOrder returns worker w's key indexes (≡ w mod workers) in a
// seeded random order.
func ownedOrder(seed uint64, stream string, w, keys, workers int) []int {
	var order []int
	for i := w; i < keys; i += workers {
		order = append(order, i)
	}
	r := newRNG(seed, stream, w)
	for i := len(order) - 1; i > 0; i-- {
		j := r.below(uint64(i + 1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

func runHashPoint(o options) (*report, error) {
	rep := newReport()
	peak := 0.0
	st, setup, err := timedSetups(3, func() (*hashState, error) { return buildHash(o) },
		func(*hashState) {}, &peak)
	if err != nil {
		return nil, err
	}
	rep.attempted += hashKeys // the preload's inserts
	rngs := make([]*rng, hashWorkers)
	for w := range rngs {
		rngs[w] = newRNG(o.seed, "hash-point", w)
	}
	perShard := make([][hashShards]uint64, hashWorkers)
	c := clock{epoch: time.Now()}
	s := newSchedule(c, warmup, o.seconds, o.trace)
	cl := runClosedLoop(c, s, o, hashWorkers, st.store, func(w int, tr *tracer, c clock) int {
		r := rngs[w]
		kind := hashMix.draw(r)
		idx := int(r.below(hashKeys/hashWorkers))*hashWorkers + w
		k := hashKey(idx)
		var t0 int64
		if tr != nil {
			t0 = c.now()
			tr.begin("hash-point.op", t0)
		}
		shard := st.store.ShardForKey(k)
		h := st.handles[w][shard]
		perShard[w][shard]++
		var t1 int64
		if tr != nil {
			t1 = c.now()
			tr.child("store.route", t0, t1)
		}
		switch kind {
		case opGet:
			v, err := h.Get(k)
			if tr != nil {
				t2 := c.now()
				tr.child("hashtable.get", t1, t2)
				tr.end(t2)
			}
			if err != nil || v != st.shadow[idx] || !wordValueOK(k, v) {
				rep.fail("hash-point get key %d: got %#x, %v; want %#x", k, v, err, st.shadow[idx])
			}
		case opUpdate:
			v := wordValue(k, uint32(st.shadow[idx]&0xffffff)+1)
			err := h.Update(k, v)
			if tr != nil {
				t2 := c.now()
				tr.child("hashtable.update", t1, t2)
				tr.end(t2)
			}
			if err != nil {
				rep.fail("hash-point update key %d: %v", k, err)
			} else {
				st.shadow[idx] = v
			}
		}
		return kind.class()
	}, nil)
	rep.attempted += cl.ops
	peak = max(peak, liveHeapMiB())

	// Durability: close, crash, recover, and compare the durable table
	// with the shadow. No key is inserted or deleted after the preload, so
	// the durable key set is exactly the preloaded one.
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
	if err != nil {
		rep.fail("hash-point invariants after recovery: %v", err)
	} else {
		seen := 0
		for _, e := range ds.Hash {
			idx := int(e.Key) - 1
			if idx < 0 || idx >= hashKeys || e.Value != st.shadow[idx] {
				rep.fail("hash-point durable key %d = %#x, acknowledged %#x", e.Key, e.Value, st.shadow[max(0, min(idx, hashKeys-1))])
				continue
			}
			seen++
		}
		if seen != hashKeys || len(ds.Hash) != hashKeys {
			rep.fail("hash-point durable table holds %d keys (%d matching), want %d", len(ds.Hash), seen, hashKeys)
		}
	}
	peak = max(peak, liveHeapMiB())

	closedLoopMetrics(rep, o, cl, s, setup, recoverS, peak)
	if o.trace {
		var shards []uint64
		for sh := 0; sh < hashShards; sh++ {
			var n uint64
			for w := range perShard {
				n += perShard[w][sh]
			}
			shards = append(shards, n)
		}
		rep.values["store.shard_skew"] = skew(shards)
		rep.values["hashtable.get_ns_p50"] = selfP50(cl.tracers, "hashtable.get")
		rep.values["hashtable.update_ns_p50"] = selfP50(cl.tracers, "hashtable.update")
		recoveryMetrics(rep, rst, checkS)
		rep.values["alloc.bytes_per_live_key"] = float64(st.store.Stats().AllocBytes) / hashKeys
		if err := writeSpans(spanPath(o), cl.tracers); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
