package crashsweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"pmwcas"
	"pmwcas/internal/blobkv"
	"pmwcas/internal/harness"
	"pmwcas/internal/pqueue"
	"pmwcas/internal/server"
	"pmwcas/internal/wire"
)

// A workload drives one index (or the whole server stack) through a
// deterministic trace of mutations, reporting every acknowledged effect
// to its oracle.
type workload struct {
	name      string
	shards    int // store shards the workload runs over (0 = 1)
	copts     pmwcas.CheckOptions
	newOracle func() oracle
	run       func(st *pmwcas.Store, o oracle, opt Options) error
}

var workloads = []workload{
	{
		// 48 keys, 3 upserts and 2 deletes in 6: most operations hit
		// existing towers (the delete/unlink and update paths, not just
		// fresh inserts).
		name:      "skiplist",
		newOracle: func() oracle { return newKVOracle(targetSkipList) },
		run:       runKV(48, 3, 2, openSkipList),
	},
	{
		// Upsert-heavy (4 in 6) over 96 keys to grow depth and trigger
		// splits; the deletes shrink leaves under MergeBelow.
		name:      "bwtree",
		newOracle: func() oracle { return newKVOracle(targetBwTree) },
		run:       runKV(96, 4, 1, openBwTree),
	},
	{
		// Upsert-heavy over 96 keys to fill buckets and trigger splits.
		name:      "hashtable",
		newOracle: func() oracle { return newKVOracle(targetHash) },
		run:       runKV(96, 4, 1, openHashTable),
	},
	{
		name:      "pqueue",
		newOracle: func() oracle { return newQueueOracle() },
		run:       runPQueue,
	},
	{
		name:      "blobkv",
		copts:     pmwcas.CheckOptions{Blob: true},
		newOracle: func() oracle { return newBlobOracle() },
		run:       runBlobKV,
	},
	{
		name:      "server",
		copts:     pmwcas.CheckOptions{Blob: true},
		newOracle: func() oracle { return newBlobOracle() },
		run:       runServer,
	},
	{
		// The hashtable mix across two shards.
		name:      "sharded",
		shards:    2,
		newOracle: func() oracle { return newKVOracle(targetHash) },
		run:       runKV(96, 4, 1, openSharded),
	},
}

// Names lists the workloads in sweep order.
func Names() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runKV returns an integer-KV run: upserts, deletes and read-backs over
// keys [1, keys], the op picked by rng.Intn(6) — below puts upserts,
// below puts+dels deletes, the rest read back against the model. open
// makes the one handle the trace drives.
func runKV(keys, puts, dels int, open func(*pmwcas.Store, Options) (harness.PointOps, error)) func(*pmwcas.Store, oracle, Options) error {
	return func(st *pmwcas.Store, o oracle, opt Options) error {
		kv := o.(*kvOracle)
		h, err := open(st, opt)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(opt.Seed))
		for i := 0; i < opt.Ops; i++ {
			key := uint64(rng.Intn(keys)) + 1
			switch op := rng.Intn(6); {
			case op < puts:
				val := uint64(rng.Intn(1<<20)) + 1
				kv.begin(kvOp{kvPut, key, val})
				err := h.Insert(key, val)
				if harness.IsKeyExists(err) {
					err = h.Update(key, val)
				}
				kv.commit(err == nil)
				if err != nil {
					return fmt.Errorf("put %#x: %w", key, err)
				}
			case op < puts+dels:
				kv.begin(kvOp{kvDelete, key, 0})
				err := h.Delete(key)
				kv.commit(err == nil)
				if err != nil && !harness.IsNotFound(err) {
					return fmt.Errorf("delete %#x: %w", key, err)
				}
			default: // read-back: a live linearizability probe against the model
				got, err := h.Get(key)
				want, ok := kv.expect(key)
				if harness.IsNotFound(err) {
					if ok {
						return fmt.Errorf("get %#x: not found, model has %#x", key, want)
					}
				} else if err != nil {
					return fmt.Errorf("get %#x: %w", key, err)
				} else if !ok || got != want {
					return fmt.Errorf("get %#x = %#x, model has %#x (present %v)", key, got, want, ok)
				}
			}
		}
		return nil
	}
}

func openSkipList(st *pmwcas.Store, opt Options) (harness.PointOps, error) {
	list, err := st.SkipList()
	if err != nil {
		return nil, err
	}
	return list.NewHandle(opt.Seed), nil
}

// openBwTree uses deliberately tiny pages and aggressive maintenance
// thresholds, so a few hundred operations force every SMO:
// consolidation, splits (including root splits), and merges.
func openBwTree(st *pmwcas.Store, _ Options) (harness.PointOps, error) {
	tree, err := st.BwTree(pmwcas.BwTreeOptions{
		LeafCapacity:     8,
		InnerCapacity:    8,
		ConsolidateAfter: 3,
		MergeBelow:       3,
	})
	if err != nil {
		return nil, err
	}
	return tree.NewHandle(), nil
}

// openHashTable uses deliberately tiny buckets, so a few hundred
// operations over 96 keys force many splits and several directory
// doublings alongside the plain insert/update/delete paths.
func openHashTable(st *pmwcas.Store, _ Options) (harness.PointOps, error) {
	tab, err := st.HashTable(pmwcas.HashTableOptions{SlotsPerBucket: 4})
	if err != nil {
		return nil, err
	}
	return tab.NewHandle(), nil
}

// openSharded opens openHashTable's table on every shard and routes
// each key to its home shard with Store.ShardForKey, as the server does.
// Beyond the per-shard crash points (each shard's splits, doublings and
// reclaims interleave in one device trace), the sweeper's check adds the
// cross-shard ones: every clone is additionally crashed *between* shard
// recoveries and re-recovered from scratch.
func openSharded(st *pmwcas.Store, opt Options) (harness.PointOps, error) {
	shards := make([]harness.NewOps, st.ShardCount())
	for si := range shards {
		tab, err := st.Shard(si).HashTable(pmwcas.HashTableOptions{SlotsPerBucket: 4})
		if err != nil {
			return nil, err
		}
		shards[si] = harness.HashTable(tab)
	}
	return harness.Routed(shards, st.ShardForKey)(opt.Seed), nil
}

func runPQueue(st *pmwcas.Store, o oracle, opt Options) error {
	qo := o.(*queueOracle)
	q, err := st.Queue()
	if err != nil {
		return err
	}
	h := q.NewHandle()
	rng := rand.New(rand.NewSource(opt.Seed))
	for i := 0; i < opt.Ops; i++ {
		if rng.Intn(3) < 2 { // enqueue-biased so the queue grows
			val := uint64(rng.Intn(1<<20)) + 1
			qo.begin(queueOp{enqueue: true, val: val})
			err := h.Enqueue(val)
			qo.commitEnqueue(err == nil)
			if err != nil {
				return fmt.Errorf("enqueue %#x: %w", val, err)
			}
		} else {
			qo.begin(queueOp{})
			got, err := h.Dequeue()
			if err != nil && !errors.Is(err, pqueue.ErrEmpty) {
				return fmt.Errorf("dequeue: %w", err)
			}
			if cerr := qo.commitDequeue(err == nil, got); cerr != nil {
				return cerr
			}
		}
	}
	return nil
}

// blobKeys is the key pool for the blob workloads (keycodec limits keys
// to 7 bytes). Small enough that puts frequently overwrite — the
// free-old-record path — and deletes frequently hit.
func blobKeys() []string {
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	return keys
}

func runBlobKV(st *pmwcas.Store, o oracle, opt Options) error {
	bo := o.(*blobOracle)
	kv, err := st.BlobKV()
	if err != nil {
		return err
	}
	h := kv.NewHandle(opt.Seed)
	rng := rand.New(rand.NewSource(opt.Seed))
	keys := blobKeys()
	for i := 0; i < opt.Ops; i++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0, 1, 2, 3: // put (fresh or overwrite)
			val := make([]byte, rng.Intn(96))
			rng.Read(val)
			bo.begin(blobOp{key: key, val: val})
			err := h.Put([]byte(key), val)
			bo.commit(err == nil)
			if err != nil {
				return fmt.Errorf("put %q: %w", key, err)
			}
		case 4:
			bo.begin(blobOp{del: true, key: key})
			err := h.Delete([]byte(key))
			if errors.Is(err, blobkv.ErrNotFound) {
				bo.commit(false)
			} else if err != nil {
				bo.commit(false)
				return fmt.Errorf("delete %q: %w", key, err)
			} else {
				bo.commit(true)
			}
		case 5:
			got, err := h.Get([]byte(key))
			want, ok := bo.expect(key)
			if errors.Is(err, blobkv.ErrNotFound) {
				if ok {
					return fmt.Errorf("get %q: not found, model has %d bytes", key, len(want))
				}
			} else if err != nil {
				return fmt.Errorf("get %q: %w", key, err)
			} else if !ok || !bytesEqual(got, want) {
				return fmt.Errorf("get %q = %x, model %x (present %v)", key, got, want, ok)
			}
		}
	}
	return nil
}

// runServer drives the same blob mix through the full network stack: a
// live Server over the store, one TCP connection, requests via the wire
// client. Crash points fire on the server's connection goroutine while
// the driver blocks on the response — the oracle mutex is what makes the
// hook's snapshot safe.
func runServer(st *pmwcas.Store, o oracle, opt Options) error {
	bo := o.(*blobOracle)
	srv, err := server.New(server.Config{Store: st, MaxConns: 1})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		return <-serveErr
	}

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		shutdown()
		return err
	}
	if err := runServerOps(c, bo, opt); err != nil {
		c.Close()
		shutdown()
		return err
	}
	if err := c.Close(); err != nil {
		shutdown()
		return err
	}
	// Shutdown before the harness's final crash check: Store.Crash
	// requires quiescence, and drained connections return every handle.
	return shutdown()
}

func runServerOps(c *wire.Client, bo *blobOracle, opt Options) error {
	rng := rand.New(rand.NewSource(opt.Seed))
	keys := blobKeys()
	for i := 0; i < opt.Ops; i++ {
		key := keys[rng.Intn(len(keys))]
		switch rng.Intn(6) {
		case 0, 1, 2, 3:
			val := make([]byte, rng.Intn(96))
			rng.Read(val)
			bo.begin(blobOp{key: key, val: val})
			err := c.Put([]byte(key), val)
			bo.commit(err == nil)
			if err != nil {
				return fmt.Errorf("PUT %q: %w", key, err)
			}
		case 4:
			bo.begin(blobOp{del: true, key: key})
			err := c.Delete([]byte(key))
			if errors.Is(err, wire.ErrNotFound) {
				bo.commit(false)
			} else if err != nil {
				bo.commit(false)
				return fmt.Errorf("DELETE %q: %w", key, err)
			} else {
				bo.commit(true)
			}
		case 5:
			got, err := c.Get([]byte(key))
			want, ok := bo.expect(key)
			if errors.Is(err, wire.ErrNotFound) {
				if ok {
					return fmt.Errorf("GET %q: not found, model has %d bytes", key, len(want))
				}
			} else if err != nil {
				return fmt.Errorf("GET %q: %w", key, err)
			} else if !ok || !bytesEqual(got, want) {
				return fmt.Errorf("GET %q = %x, model %x (present %v)", key, got, want, ok)
			}
		}
	}
	return nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
