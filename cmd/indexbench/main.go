// Command indexbench runs the two index matrices: E10, the cross-index
// evaluation (all three persistent indexes through load / read / scan /
// mixed workloads under uniform and zipfian key draws, one table), and
// E12, the shard matrix (the persistent hash index across shard counts).
// E1-E9 and E11 run from cmd/experiments.
//
// Usage:
//
//	indexbench [-json out.json] [-threads n] [-ops n] [-keys n] [-flushns n]
//	indexbench -shards 1,2,4,8 [-yieldevery n] [-json out.json] [-threads n] [-ops n] [-keys n] [-flushns n]
//
// -json additionally writes the matrix as machine-readable JSON (the
// formats committed as BENCH_indexmatrix.json and BENCH_shardmatrix.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pmwcas"
	"pmwcas/internal/harness"
)

func main() {
	threads := flag.Int("threads", 4, "worker goroutines")
	ops := flag.Int("ops", 20000, "operations per thread")
	keys := flag.Uint64("keys", 1<<16, "key space size")
	flushNS := flag.Int("flushns", 0, "simulated CLWB latency in ns")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts (e.g. 1,2,4,8): run the sharded hash matrix (E12) instead of the cross-index matrix (E10)")
	yieldEvery := flag.Int("yieldevery", 0, "with -shards: yield the processor every n device accesses (emulates fine-grained interleaving on few-core hosts)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	flag.Parse()

	w := harness.Workload{
		Threads:  *threads,
		OpsPer:   *ops,
		KeySpace: *keys,
		Preload:  int(*keys / 2),
	}
	flush := time.Duration(*flushNS) * time.Nanosecond

	if *shardsFlag == "" {
		runMatrix(w, flush, *jsonPath)
		return
	}
	counts, err := parseShards(*shardsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(2)
	}
	runShardMatrix(w, flush, counts, *yieldEvery, *jsonPath)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "indexbench:", err)
	os.Exit(1)
}

func must[T any](v T, err error) T {
	if err != nil {
		fail(err)
	}
	return v
}

// writeJSON writes doc, indented, to path; an empty path writes nothing.
func writeJSON(path string, doc any) {
	if path == "" {
		return
	}
	out := must(json.MarshalIndent(doc, "", "  "))
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// shape is one workload shape of the matrices. A shape without preload
// starts from an empty index.
type shape struct {
	name    string
	mix     harness.Mix
	preload bool
}

// workload specializes w to the shape under key distribution d.
func (sh shape) workload(w harness.Workload, d harness.Distribution) harness.Workload {
	w.Mix = sh.mix
	w.Dist = d
	if !sh.preload {
		w.Preload = 0
	}
	return w
}

// shapes are the workload shapes both matrices run, each under every
// distribution in dists.
var shapes = []shape{
	{"load", harness.Mix{Inserts: 100}, false},
	{"read", harness.ReadHeavy, true},
	{"scan", harness.ScanHeavy, true},
	{"mixed", harness.UpdateHeavy, true},
}

var dists = []harness.Distribution{harness.Uniform, harness.Zipf}

// matrixCell is one measured (index, workload, distribution) point of the
// cross-index matrix — the JSON record format of BENCH_indexmatrix.json.
type matrixCell struct {
	Index        string  `json:"index"`
	Workload     string  `json:"workload"`
	Dist         string  `json:"dist"`
	Supported    bool    `json:"supported"`
	OpsPerSec    float64 `json:"ops_per_sec,omitempty"`
	FlushesPerOp float64 `json:"flushes_per_op,omitempty"`
}

// matrixDoc is the JSON envelope: the parameters the numbers were
// measured under travel with them.
type matrixDoc struct {
	Bench        string       `json:"bench"`
	Threads      int          `json:"threads"`
	OpsPerThread int          `json:"ops_per_thread"`
	KeySpace     uint64       `json:"key_space"`
	FlushNS      int64        `json:"flush_ns"`
	Results      []matrixCell `json:"results"`
}

// runMatrix is the cross-index evaluation (E10): every persistent index
// through four workload shapes under two key distributions. Scan on the
// hash index is reported as unsupported rather than measured — a hash
// table faking a range scan would be benchmarking a lie.
func runMatrix(w harness.Workload, flush time.Duration, jsonPath string) {
	tbl := harness.NewTable(
		fmt.Sprintf("Index matrix — persistent stores, %d threads, %d keys", w.Threads, w.KeySpace),
		"index", "workload", "dist", "ops/s", "flushes/op")
	doc := matrixDoc{
		Bench:        "indexmatrix",
		Threads:      w.Threads,
		OpsPerThread: w.OpsPer,
		KeySpace:     w.KeySpace,
		FlushNS:      flush.Nanoseconds(),
	}
	for _, ix := range []string{"skiplist", "bwtree", "hash"} {
		for _, sh := range shapes {
			for _, d := range dists {
				cell := matrixCell{Index: ix, Workload: sh.name, Dist: d.String()}
				if ix == "hash" && sh.mix.Scans > 0 {
					tbl.Add(ix, sh.name, d.String(), "n/a (unordered)", "-")
					doc.Results = append(doc.Results, cell)
					continue
				}
				s := matrixStore(flush)
				r := must(harness.Run(matrixFactory(s, ix), sh.workload(w, d),
					func() uint64 { return s.Device().Stats().Flushes }))
				cell.Supported = true
				cell.OpsPerSec = r.OpsPerSec
				cell.FlushesPerOp = r.FlushesPer
				doc.Results = append(doc.Results, cell)
				tbl.Add(ix, sh.name, d.String(), harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)
	writeJSON(jsonPath, doc)
}

// matrixStore builds one persistent store per matrix cell so cells never
// share a heap.
func matrixStore(flush time.Duration) *pmwcas.Store {
	return must(pmwcas.Create(pmwcas.Config{
		Size:         256 << 20,
		Mode:         pmwcas.Persistent,
		Descriptors:  4096,
		MaxHandles:   256,
		FlushLatency: flush,
	}))
}

// matrixFactory opens index ix on store s in its matrix configuration.
func matrixFactory(s *pmwcas.Store, ix string) harness.IndexFactory {
	switch ix {
	case "skiplist":
		return &harness.SkipListFactory{List: must(s.SkipList()), Label: "skiplist"}
	case "bwtree":
		return &harness.BwTreeFactory{Tree: must(s.BwTree(pmwcas.BwTreeOptions{})), Label: "bwtree"}
	case "hash":
		return &harness.HashTableFactory{Table: must(s.HashTable(pmwcas.HashTableOptions{})), Label: "hash"}
	}
	panic("indexbench: unreachable index " + ix)
}

// parseShards parses the -shards list.
func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -shards entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// shardCell is one measured (shards, workload, distribution) point —
// the JSON record format of BENCH_shardmatrix.json.
type shardCell struct {
	Shards       int     `json:"shards"`
	Workload     string  `json:"workload"`
	Dist         string  `json:"dist"`
	OpsPerSec    float64 `json:"ops_per_sec"`
	FlushesPerOp float64 `json:"flushes_per_op"`
}

type shardDoc struct {
	Bench        string      `json:"bench"`
	Threads      int         `json:"threads"`
	OpsPerThread int         `json:"ops_per_thread"`
	KeySpace     uint64      `json:"key_space"`
	FlushNS      int64       `json:"flush_ns"`
	YieldEvery   int         `json:"yield_every"`
	Results      []shardCell `json:"results"`
}

// shardStoreFor builds a persistent store with n shards and the same
// total resource budget regardless of n: the device size and descriptor
// total are fixed, so every run gets identical memory and descriptor
// capacity, just partitioned differently.
func shardStoreFor(n int, flush time.Duration, yieldEvery int) *pmwcas.Store {
	return must(pmwcas.Create(pmwcas.Config{
		Size:         256 << 20,
		Mode:         pmwcas.Persistent,
		Shards:       n,
		Descriptors:  max(4096/n, 256),
		MaxHandles:   64,
		FlushLatency: flush,
		YieldEvery:   yieldEvery,
	}))
}

// shardedHashFactory routes keys across per-shard hash tables with
// Store.ShardForKey — the same placement the server's kvConn uses,
// measured without the network in the way.
type shardedHashFactory struct {
	store *pmwcas.Store
	tabs  []*pmwcas.HashTable
	label string
}

func newShardedHashFactory(s *pmwcas.Store, label string) *shardedHashFactory {
	f := &shardedHashFactory{store: s, label: label}
	for i := 0; i < s.ShardCount(); i++ {
		f.tabs = append(f.tabs, must(s.Shard(i).HashTable(pmwcas.HashTableOptions{})))
	}
	return f
}

func (f *shardedHashFactory) Name() string { return f.label }

func (f *shardedHashFactory) NewOps(seed int64) harness.IndexOps {
	o := &shardedHashOps{store: f.store}
	for _, t := range f.tabs {
		o.hs = append(o.hs, t.NewHandle())
	}
	return o
}

type shardedHashOps struct {
	store *pmwcas.Store
	hs    []*pmwcas.HashTableHandle
}

func (o *shardedHashOps) h(key uint64) *pmwcas.HashTableHandle {
	return o.hs[o.store.ShardForKey(key)]
}

func (o *shardedHashOps) Insert(k, v uint64) error     { return o.h(k).Insert(k, v) }
func (o *shardedHashOps) Get(k uint64) (uint64, error) { return o.h(k).Get(k) }
func (o *shardedHashOps) Update(k, v uint64) error     { return o.h(k).Update(k, v) }
func (o *shardedHashOps) Delete(k uint64) error        { return o.h(k).Delete(k) }
func (o *shardedHashOps) Scan(from, to uint64, fn func(uint64, uint64) bool) error {
	return pmwcas.ErrHashUnordered
}

// runShardMatrix measures the shard-per-core engine (E12): the hash
// index across shard counts, workload shapes, and key distributions,
// with the total device/descriptor budget held constant so the only
// variable is how the store is partitioned. The hash index is
// unordered, so the scan shape is skipped.
func runShardMatrix(w harness.Workload, flush time.Duration, counts []int, yieldEvery int, jsonPath string) {
	tbl := harness.NewTable(
		fmt.Sprintf("Shard matrix — persistent hash index, %d threads, %d keys", w.Threads, w.KeySpace),
		"shards", "workload", "dist", "ops/s", "flushes/op")
	doc := shardDoc{
		Bench:        "shardmatrix",
		Threads:      w.Threads,
		OpsPerThread: w.OpsPer,
		KeySpace:     w.KeySpace,
		FlushNS:      flush.Nanoseconds(),
		YieldEvery:   yieldEvery,
	}
	for _, n := range counts {
		for _, sh := range shapes {
			if sh.mix.Scans > 0 {
				continue
			}
			for _, d := range dists {
				s := shardStoreFor(n, flush, yieldEvery)
				f := newShardedHashFactory(s, fmt.Sprintf("hash/%dshard", n))
				r := must(harness.Run(f, sh.workload(w, d),
					func() uint64 { return s.Device().Stats().Flushes }))
				doc.Results = append(doc.Results, shardCell{
					Shards: n, Workload: sh.name, Dist: d.String(),
					OpsPerSec: r.OpsPerSec, FlushesPerOp: r.FlushesPer,
				})
				tbl.Add(fmt.Sprint(n), sh.name, d.String(),
					harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)
	writeJSON(jsonPath, doc)
}
