package server

import (
	"bytes"
	"errors"
	"fmt"

	"pmwcas"
	"pmwcas/internal/keycodec"
)

// Index names a server storage backend.
type Index string

// Supported indexes.
const (
	// IndexSkipList serves keys from the blob KV layer over the PMwCAS
	// skip list: values up to blobkv.MaxValueLen bytes, crash-atomic.
	IndexSkipList Index = "skiplist"
	// IndexBwTree serves keys from the Bw-tree. Keys and values both
	// travel through the order-preserving word codec, so values are
	// limited to keycodec.MaxLen bytes — a counters-and-flags regime.
	IndexBwTree Index = "bwtree"
	// IndexHash serves keys from the extendible hash table, the same
	// codec-bounded regime as the Bw-tree but with O(1) point lookups and
	// no key order: SCAN is rejected with a BAD_REQUEST (the wire protocol
	// has no UNSUPPORTED status, and returning hash-ordered entries for an
	// op every other index serves in key order would be a silent lie).
	IndexHash Index = "hash"
)

// errValueTooLarge is returned for values the index cannot hold.
var errValueTooLarge = errors.New("server: value too large for this index")

// kvConn is one connection's handle onto the store: one index handle
// per shard for the configured index, slice position = shard number (a
// one-shard store is the length-1 case). Per-handle state — epoch
// guard, allocator slot, staging slot — lives in the index handles, so
// two connections never share one and the store's lock-free paths run
// genuinely concurrently. kvConns are minted once at server start
// (handle budgets are a startup decision in every layer below) and
// leased to connections from a pool.
type kvConn struct {
	store *pmwcas.Store
	index Index
	// Exactly one of these is populated, the one for index.
	blob []*pmwcas.BlobKVHandle
	bw   []*pmwcas.BwTreeHandle
	hash []*pmwcas.HashTableHandle
	// buf is Get's reusable value scratch. A connection handles one
	// request at a time and encodes the response before the next read,
	// so the returned value may alias it.
	buf []byte
}

// newKVConns mints n per-connection handles for the chosen index,
// shard-major: each shard's index is opened once and mints handle i for
// connection i.
func newKVConns(store *pmwcas.Store, index Index, n int) ([]*kvConn, error) {
	shards := store.ShardCount()
	out := make([]*kvConn, n)
	for i := range out {
		out[i] = &kvConn{store: store, index: index}
	}
	for si := 0; si < shards; si++ {
		sh := store.Shard(si)
		switch index {
		case IndexSkipList:
			kv, err := sh.BlobKV()
			if err != nil {
				return nil, fmt.Errorf("server: shard %d: open blobkv: %w", si, err)
			}
			for i, c := range out {
				c.blob = append(c.blob, kv.NewHandle(int64(i)+0x5e12))
			}
		case IndexBwTree:
			tree, err := sh.BwTree(pmwcas.BwTreeOptions{})
			if err != nil {
				return nil, fmt.Errorf("server: shard %d: open bwtree: %w", si, err)
			}
			for _, c := range out {
				c.bw = append(c.bw, tree.NewHandle())
			}
		case IndexHash:
			tab, err := sh.HashTable(pmwcas.HashTableOptions{})
			if err != nil {
				return nil, fmt.Errorf("server: shard %d: open hashtable: %w", si, err)
			}
			for _, c := range out {
				c.hash = append(c.hash, tab.NewHandle())
			}
		default:
			return nil, fmt.Errorf("server: unknown index %q (want %q, %q, or %q)", index, IndexSkipList, IndexBwTree, IndexHash)
		}
	}
	return out, nil
}

// Get returns the value under key. Not-found surfaces as the index's
// own sentinel (errResponse maps all three).
//
//pmwcas:hotpath — server GET: one key encode, one route, one index lookup; the value lands in the connection's scratch
func (c *kvConn) Get(key []byte) ([]byte, error) {
	k, err := keycodec.Encode(key)
	if err != nil {
		return nil, err
	}
	s := c.store.ShardForKey(k)
	var w uint64
	switch c.index {
	case IndexSkipList:
		v, err := c.blob[s].GetAppendEncoded(k, c.buf[:0])
		if err != nil {
			return nil, err
		}
		c.buf = v
		return v, nil
	case IndexBwTree:
		w, err = c.bw[s].Get(k)
	default:
		w, err = c.hash[s].Get(k)
	}
	if err != nil {
		return nil, err
	}
	v, err := keycodec.AppendDecode(c.buf[:0], w)
	if err != nil {
		return nil, err
	}
	c.buf = v
	return v, nil
}

// Put stores val under key, inserting or replacing.
//
//pmwcas:hotpath — server PUT: one key encode, one route, one index upsert
func (c *kvConn) Put(key, val []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	s := c.store.ShardForKey(k)
	if c.index == IndexSkipList {
		return c.blob[s].PutEncoded(k, val)
	}
	// The word indexes pack the value with the key's codec, which bounds
	// both at keycodec.MaxLen bytes but keeps every mutation a single
	// index write.
	if len(val) > keycodec.MaxLen {
		return errValueTooLarge
	}
	v, err := keycodec.Encode(val)
	if err != nil {
		return err
	}
	if c.index == IndexHash {
		return c.hash[s].Upsert(k, v)
	}
	// Upsert: race losses between the existence check inside Update and
	// Insert are retried until one path wins.
	h := c.bw[s]
	for {
		err := h.Update(k, v)
		if !errors.Is(err, pmwcas.ErrBwTreeNotFound) {
			return err
		}
		err = h.Insert(k, v)
		if !errors.Is(err, pmwcas.ErrBwTreeKeyExists) {
			return err
		}
	}
}

// Delete removes key.
//
//pmwcas:hotpath — server DELETE: one key encode, one route, one index delete
func (c *kvConn) Delete(key []byte) error {
	k, err := keycodec.Encode(key)
	if err != nil {
		return err
	}
	s := c.store.ShardForKey(k)
	switch c.index {
	case IndexSkipList:
		return c.blob[s].DeleteEncoded(k)
	case IndexBwTree:
		return c.bw[s].Delete(k)
	}
	return c.hash[s].Delete(k)
}

// Scan visits entries with keys in [from, end] in order, at most limit
// of them. An empty end means the end of the keyspace. A one-shard
// store streams straight from its handle; more shards merge.
func (c *kvConn) Scan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	if c.store.ShardCount() == 1 {
		return c.scanShard(0, from, end, limit, fn)
	}
	return c.mergeScan(from, end, limit, fn)
}

// maxKeyBytes is the largest encodable key — the inclusive upper bound
// for an open-ended scan.
var maxKeyBytes = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// scanShard is Scan over shard si alone. The callback's slices may be
// reused by the index after it returns.
func (c *kvConn) scanShard(si int, from, end []byte, limit int, fn func(key, val []byte) bool) error {
	n := 0
	switch c.index {
	case IndexSkipList:
		if len(end) == 0 {
			end = maxKeyBytes
		}
		return c.blob[si].Scan(from, end, func(k, v []byte) bool {
			if n >= limit {
				return false
			}
			n++
			return fn(k, v)
		})
	case IndexBwTree:
		lo, err := keycodec.Encode(from)
		if err != nil {
			return err
		}
		hi, err := scanUpperBound(end)
		if err != nil {
			return err
		}
		var decodeErr error
		err = c.bw[si].Scan(lo, hi, func(e pmwcas.BwTreeEntry) bool {
			if n >= limit {
				return false
			}
			k, err := keycodec.Decode(e.Key)
			if err != nil {
				decodeErr = err
				return false
			}
			v, err := keycodec.Decode(e.Value)
			if err != nil {
				decodeErr = err
				return false
			}
			n++
			return fn(k, v)
		})
		if decodeErr != nil {
			return decodeErr
		}
		return err
	}
	return pmwcas.ErrHashUnordered
}

// scanUpperBound maps a request's end-key to an encoded inclusive upper
// bound; empty means "everything from the lower bound on".
func scanUpperBound(end []byte) (uint64, error) {
	if len(end) == 0 {
		_, hi, err := keycodec.PrefixRange(nil)
		return hi, err
	}
	return keycodec.Encode(end)
}

// scanBatch is the most entries a shard cursor pulls per refill. Small
// enough that a short scan does not drag a big batch off every shard,
// large enough to amortize the per-batch index descent.
const scanBatch = 32

// shardCursor is one shard's position in a merged scan: a buffered
// batch of pending entries and the key to resume from.
type shardCursor struct {
	shard int
	buf   []kvPair
	next  []byte // resume key for the following batch
	done  bool   // the shard has no entries past buf
}

type kvPair struct{ k, v []byte }

// refill pulls cur's next batch if its buffer is empty: at most want
// entries (what the scan can still emit), capped at scanBatch. The shard
// scan's callback may reuse its argument slices, so entries are copied
// out.
func (c *kvConn) refill(cur *shardCursor, end []byte, want int) error {
	if cur.done || len(cur.buf) > 0 {
		return nil
	}
	batch := min(scanBatch, want)
	got := 0
	var last []byte
	err := c.scanShard(cur.shard, cur.next, end, batch, func(k, v []byte) bool {
		kk := append([]byte(nil), k...)
		cur.buf = append(cur.buf, kvPair{kk, append([]byte(nil), v...)})
		last = kk
		got++
		return true
	})
	if err != nil {
		return err
	}
	if got < batch {
		// The shard had fewer than a full batch left in [next, end].
		cur.done = true
		return nil
	}
	nk, ok := successorKey(last)
	if !ok {
		cur.done = true // last was the top of the keyspace
		return nil
	}
	cur.next = nk
	return nil
}

// mergeScan merges the shards' individually-ordered streams into global
// key order: repeatedly emit the smallest head among the shard cursors,
// refilling each cursor's batch as it drains. Each emitted entry is
// durable on its home shard at emission time, so the merged stream is
// exactly as consistent as a single-shard scan under concurrent writers:
// an ordered snapshot-free walk.
func (c *kvConn) mergeScan(from, end []byte, limit int, fn func(key, val []byte) bool) error {
	cursors := make([]shardCursor, c.store.ShardCount())
	for i := range cursors {
		cursors[i] = shardCursor{shard: i, next: append([]byte(nil), from...)}
	}
	emitted := 0
	for emitted < limit {
		// Refill any drained cursor, then pick the smallest head. Keys are
		// unique across shards (each lives only on its home shard), so ties
		// are impossible and the pick order is total.
		min := -1
		for i := range cursors {
			if err := c.refill(&cursors[i], end, limit-emitted); err != nil {
				return err
			}
			if len(cursors[i].buf) == 0 {
				continue
			}
			if min < 0 || bytes.Compare(cursors[i].buf[0].k, cursors[min].buf[0].k) < 0 {
				min = i
			}
		}
		if min < 0 {
			return nil // every shard exhausted
		}
		head := cursors[min].buf[0]
		cursors[min].buf = cursors[min].buf[1:]
		emitted++
		if !fn(head.k, head.v) {
			return nil
		}
	}
	return nil
}

// successorKey returns the smallest key strictly greater than k in the
// bounded keyspace (keys up to keycodec.MaxLen bytes, byte order). The
// second result is false when k is the keyspace's maximum.
func successorKey(k []byte) ([]byte, bool) {
	if len(k) < keycodec.MaxLen {
		// Room to grow: k followed by the smallest byte.
		return append(append([]byte(nil), k...), 0x00), true
	}
	// Maximum length: increment, dropping trailing 0xff bytes. The result
	// is shorter than k yet strictly greater, with nothing in between.
	s := append([]byte(nil), k...)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0xff {
			s[i]++
			return s[:i+1], true
		}
	}
	return nil, false
}
