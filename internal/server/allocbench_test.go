package server

import (
	"fmt"
	"testing"

	"pmwcas"
	"pmwcas/internal/wire"
)

// BenchmarkPointOps is the committed allocation budget for the server's
// point path (BENCH_allocs.txt, gated by benchdiff -allocs in CI): GET,
// overwrite PUT, DELETE and re-insert PUT requests through Server.handle
// with no socket, on a two-shard skip-list store and one-shard Bw-tree
// and hash stores. One op is those four requests on one key.
func BenchmarkPointOps(b *testing.B) {
	cases := []struct {
		name   string
		index  Index
		shards int
	}{
		{"skiplist_2shards", IndexSkipList, 2},
		{"bwtree_1shard", IndexBwTree, 1},
		{"hash_1shard", IndexHash, 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			store, err := pmwcas.Create(pmwcas.Config{Size: 32 << 20, Shards: tc.shards, Descriptors: 512})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(Config{Store: store, Index: tc.index, MaxConns: 1})
			if err != nil {
				b.Fatal(err)
			}
			kc := <-srv.pool
			var sc respScratch
			do := func(op wire.Op, key, val []byte) {
				req := wire.Request{Op: op, Key: key, Value: val}
				if resp := srv.handle(kc, &req, &sc); resp.Status != wire.StatusOK {
					b.Fatalf("%s %q: %s %s", op, key, resp.Status, resp.Msg)
				}
			}
			const keys = 512
			key := make([][]byte, keys)
			for i := range key {
				key[i] = []byte(fmt.Sprintf("k%05d", i))
				do(wire.OpPut, key[i], []byte("v"))
			}
			val := []byte("v123456")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := key[i%keys]
				do(wire.OpGet, k, nil)
				do(wire.OpPut, k, val)
				do(wire.OpDelete, k, nil)
				do(wire.OpPut, k, val)
			}
		})
	}
}
