package harness

import (
	"errors"
	"sync/atomic"

	"pmwcas/internal/bwtree"
	"pmwcas/internal/hashtable"
	"pmwcas/internal/skiplist"
)

// IsKeyExists reports whether err is any index's key-already-present
// sentinel.
func IsKeyExists(err error) bool {
	return errors.Is(err, skiplist.ErrKeyExists) || errors.Is(err, bwtree.ErrKeyExists) ||
		errors.Is(err, hashtable.ErrKeyExists)
}

// IsNotFound reports whether err is any index's key-absent sentinel.
func IsNotFound(err error) bool {
	return errors.Is(err, skiplist.ErrNotFound) || errors.Is(err, bwtree.ErrNotFound) ||
		errors.Is(err, hashtable.ErrNotFound)
}

// isExpected reports whether an operation error is a legitimate workload
// outcome (key already there / not there) rather than a failure.
func isExpected(err error) bool { return err == nil || IsKeyExists(err) || IsNotFound(err) }

// SkipList mints PMwCAS skip-list ops (persistent or volatile, depending
// on the pool behind it). Each call offsets the tower-height seed, so two
// threads given the same seed still draw different heights.
func SkipList(l *skiplist.List) NewOps {
	var n atomic.Int64
	return func(seed int64) IndexOps { return listOps{l.NewHandle(seed + n.Add(1000003))} }
}

// CASList mints ops over the single-word-CAS baseline skip list, seeded
// as SkipList.
func CASList(l *skiplist.CASList) NewOps {
	var n atomic.Int64
	return func(seed int64) IndexOps { return listOps{l.NewHandle(seed + n.Add(1000003))} }
}

// BwTree mints Bw-tree ops (any SMO mode).
func BwTree(t *bwtree.Tree) NewOps {
	return func(int64) IndexOps { return bwTreeOps{t.NewHandle()} }
}

// HashTable mints hash-table ops. Scan reports hashtable.ErrUnordered:
// scan mixes are not meaningful on a hash index.
func HashTable(t *hashtable.Table) NewOps {
	return func(int64) IndexOps { return hashOps{t.NewHandle()} }
}

// listHandle is the handle surface both skip lists share.
type listHandle interface {
	PointOps
	Scan(from, to uint64, fn func(skiplist.Entry) bool) error
	ScanReverse(from, to uint64, fn func(skiplist.Entry) bool) error
}

// listOps, bwTreeOps and hashOps take their point ops from the embedded
// handle; their Scan shadows the handle's entry-typed one.
type listOps struct{ listHandle }

func (o listOps) Scan(from, to uint64, fn func(uint64, uint64) bool) error {
	return o.listHandle.Scan(from, to, func(e skiplist.Entry) bool { return fn(e.Key, e.Value) })
}

// ReverseScanner is implemented by index ops that support reverse range
// scans (experiment E8): both skip lists.
type ReverseScanner interface {
	ScanReverse(from, to uint64, fn func(key, value uint64) bool) error
}

func (o listOps) ScanReverse(from, to uint64, fn func(uint64, uint64) bool) error {
	return o.listHandle.ScanReverse(from, to, func(e skiplist.Entry) bool { return fn(e.Key, e.Value) })
}

type bwTreeOps struct{ *bwtree.Handle }

func (o bwTreeOps) Scan(from, to uint64, fn func(uint64, uint64) bool) error {
	return o.Handle.Scan(from, to, func(e bwtree.Entry) bool { return fn(e.Key, e.Value) })
}

type hashOps struct{ *hashtable.Handle }

func (hashOps) Scan(uint64, uint64, func(uint64, uint64) bool) error { return hashtable.ErrUnordered }

// errCrossShardScan is Routed's Scan over more than one shard: a range
// spans every shard, and no k-way merge is implemented here.
var errCrossShardScan = errors.New("harness: scan across shards is not supported")

// Routed mints ops over a sharded index: each thread's ops hold one
// per-shard ops value minted from shards, and every point op goes to
// shards[route(key)] (the store's ShardForKey, say). Scan passes through
// on one shard and returns an error on more.
func Routed(shards []NewOps, route func(key uint64) int) NewOps {
	return func(seed int64) IndexOps {
		o := routedOps{shards: make([]IndexOps, len(shards)), route: route}
		for i, newOps := range shards {
			o.shards[i] = newOps(seed)
		}
		return o
	}
}

type routedOps struct {
	shards []IndexOps
	route  func(uint64) int
}

func (o routedOps) Insert(k, v uint64) error     { return o.shards[o.route(k)].Insert(k, v) }
func (o routedOps) Get(k uint64) (uint64, error) { return o.shards[o.route(k)].Get(k) }
func (o routedOps) Update(k, v uint64) error     { return o.shards[o.route(k)].Update(k, v) }
func (o routedOps) Delete(k uint64) error        { return o.shards[o.route(k)].Delete(k) }
func (o routedOps) Scan(from, to uint64, fn func(uint64, uint64) bool) error {
	if len(o.shards) != 1 {
		return errCrossShardScan
	}
	return o.shards[0].Scan(from, to, fn)
}
