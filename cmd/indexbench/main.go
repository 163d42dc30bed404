// Command indexbench runs the index workload experiments (E5, E6, E7,
// E8): skip list, Bw-tree, and hash table throughput across
// implementation variants (single-word-CAS baseline, volatile MwCAS,
// persistent PMwCAS), operation mixes, and key distributions, plus the
// reverse-scan comparison the doubly-linked skip list exists for.
//
// Usage:
//
//	indexbench [-index skiplist|bwtree|hash|both|all] [-threads n] [-ops n]
//	           [-keys n] [-dist uniform|zipf] [-mix readheavy|updateheavy|...]
//	           [-flushns n] [-reverse]
//	indexbench -matrix [-json out.json] [-threads n] [-ops n] [-keys n] [-flushns n]
//
// -matrix runs the cross-index evaluation: all three persistent indexes
// through load / read / scan / mixed workloads under uniform and zipfian
// key draws, one table. -json additionally writes the matrix as
// machine-readable JSON (the format committed as BENCH_indexmatrix.json).
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
	index := flag.String("index", "both", "skiplist, bwtree, hash, both (ordered indexes), or all")
	threads := flag.Int("threads", 4, "worker goroutines")
	ops := flag.Int("ops", 20000, "operations per thread")
	keys := flag.Uint64("keys", 1<<16, "key space size")
	dist := flag.String("dist", "uniform", "uniform, zipf, or sequential")
	mixName := flag.String("mix", "readheavy", "readonly, readheavy, updateheavy, insertdelete, scanheavy")
	flushNS := flag.Int("flushns", 0, "simulated CLWB latency in ns")
	reverse := flag.Bool("reverse", false, "run the reverse-scan comparison (E8)")
	matrix := flag.Bool("matrix", false, "run the cross-index matrix (all indexes x workloads x distributions)")
	shardsFlag := flag.String("shards", "", "comma-separated shard counts (e.g. 1,2,4,8): run the sharded hash matrix")
	yieldEvery := flag.Int("yieldevery", 0, "with -shards: yield the processor every n device accesses (emulates fine-grained interleaving on few-core hosts)")
	jsonPath := flag.String("json", "", "with -matrix or -shards: also write results as JSON to this file")
	flag.Parse()

	mix, ok := map[string]harness.Mix{
		"readonly":     harness.ReadOnly,
		"readheavy":    harness.ReadHeavy,
		"updateheavy":  harness.UpdateHeavy,
		"insertdelete": harness.InsertDelete,
		"scanheavy":    harness.ScanHeavy,
	}[*mixName]
	if !ok {
		fmt.Fprintf(os.Stderr, "indexbench: unknown mix %q\n", *mixName)
		os.Exit(1)
	}
	d, ok := map[string]harness.Distribution{
		"uniform":    harness.Uniform,
		"zipf":       harness.Zipf,
		"sequential": harness.Sequential,
	}[*dist]
	if !ok {
		fmt.Fprintf(os.Stderr, "indexbench: unknown distribution %q\n", *dist)
		os.Exit(1)
	}

	w := harness.Workload{
		Threads:  *threads,
		OpsPer:   *ops,
		KeySpace: *keys,
		Dist:     d,
		Mix:      mix,
		Preload:  int(*keys / 2),
	}
	flush := time.Duration(*flushNS) * time.Nanosecond

	if *matrix {
		runMatrix(w, flush, *jsonPath)
		return
	}
	if *shardsFlag != "" {
		counts, err := parseShards(*shardsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(2)
		}
		runShardMatrix(w, flush, counts, *yieldEvery, *jsonPath)
		return
	}
	if *jsonPath != "" {
		fmt.Fprintln(os.Stderr, "indexbench: -json requires -matrix or -shards")
		os.Exit(2)
	}
	if *reverse {
		runReverse(w, flush)
		return
	}
	switch *index {
	case "skiplist", "bwtree", "hash", "both", "all":
	default:
		fmt.Fprintf(os.Stderr, "indexbench: unknown index %q (want skiplist, bwtree, hash, both, or all)\n", *index)
		flag.Usage()
		os.Exit(2)
	}
	if (*index == "hash" || *index == "all") && w.Mix.Scans > 0 {
		fmt.Fprintln(os.Stderr, "indexbench: the hash index is unordered and does not support scan mixes")
		os.Exit(2)
	}
	if *index == "skiplist" || *index == "both" || *index == "all" {
		runSkipList(w, flush)
	}
	if *index == "bwtree" || *index == "both" || *index == "all" {
		runBwTree(w, flush)
	}
	if *index == "hash" || *index == "all" {
		runHash(w, flush)
	}
}

// storeFor builds one store per variant run so variants never share a heap.
func storeFor(mode pmwcas.Mode, flush time.Duration) *pmwcas.Store {
	s, err := pmwcas.Create(pmwcas.Config{
		Size:         256 << 20,
		Mode:         mode,
		Descriptors:  4096,
		MaxHandles:   256,
		FlushLatency: flush,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	return s
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	return v
}

func runSkipList(w harness.Workload, flush time.Duration) {
	tbl := harness.NewTable(
		fmt.Sprintf("E5: skip list — %d threads, %s, %s", w.Threads, w.Dist, mixLabel(w.Mix)),
		"variant", "ops/s", "flushes/op", "overhead vs cas")
	var baseline float64

	{
		s := storeFor(pmwcas.Volatile, flush)
		cl := must(s.CASSkipList())
		r := must(harness.Run(&harness.CASListFactory{List: cl, Label: "cas (volatile)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		baseline = r.OpsPerSec
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer, "-")
	}
	{
		s := storeFor(pmwcas.Volatile, flush)
		l := must(s.SkipList())
		r := must(harness.Run(&harness.SkipListFactory{List: l, Label: "mwcas (volatile)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
			fmt.Sprintf("%.1f%%", harness.OverheadPct(baseline, r.OpsPerSec)))
	}
	{
		s := storeFor(pmwcas.Persistent, flush)
		l := must(s.SkipList())
		r := must(harness.Run(&harness.SkipListFactory{List: l, Label: "pmwcas (persistent)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
			fmt.Sprintf("%.1f%%", harness.OverheadPct(baseline, r.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

func runBwTree(w harness.Workload, flush time.Duration) {
	tbl := harness.NewTable(
		fmt.Sprintf("E6: Bw-tree — %d threads, %s, %s", w.Threads, w.Dist, mixLabel(w.Mix)),
		"variant", "ops/s", "flushes/op", "overhead vs cas")
	var baseline float64

	{
		s := storeFor(pmwcas.Volatile, flush)
		t := must(s.BwTree(pmwcas.BwTreeOptions{SMO: pmwcas.SMOSingleCAS}))
		r := must(harness.Run(&harness.BwTreeFactory{Tree: t, Label: "cas (volatile)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		baseline = r.OpsPerSec
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer, "-")
	}
	{
		s := storeFor(pmwcas.Volatile, flush)
		t := must(s.BwTree(pmwcas.BwTreeOptions{SMO: pmwcas.SMOPMwCAS}))
		r := must(harness.Run(&harness.BwTreeFactory{Tree: t, Label: "mwcas (volatile)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
			fmt.Sprintf("%.1f%%", harness.OverheadPct(baseline, r.OpsPerSec)))
	}
	{
		s := storeFor(pmwcas.Persistent, flush)
		t := must(s.BwTree(pmwcas.BwTreeOptions{SMO: pmwcas.SMOPMwCAS}))
		r := must(harness.Run(&harness.BwTreeFactory{Tree: t, Label: "pmwcas (persistent)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
			fmt.Sprintf("%.1f%%", harness.OverheadPct(baseline, r.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

// runHash measures E7: the hash table has no single-word-CAS baseline
// (every mutation is inherently multi-word), so the volatile MwCAS run
// is the reference the persistence overhead is charged against.
func runHash(w harness.Workload, flush time.Duration) {
	tbl := harness.NewTable(
		fmt.Sprintf("E7: hash table — %d threads, %s, %s", w.Threads, w.Dist, mixLabel(w.Mix)),
		"variant", "ops/s", "flushes/op", "overhead vs volatile")
	var baseline float64

	{
		s := storeFor(pmwcas.Volatile, flush)
		t := must(s.HashTable(pmwcas.HashTableOptions{}))
		r := must(harness.Run(&harness.HashTableFactory{Table: t, Label: "mwcas (volatile)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		baseline = r.OpsPerSec
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer, "-")
	}
	{
		s := storeFor(pmwcas.Persistent, flush)
		t := must(s.HashTable(pmwcas.HashTableOptions{}))
		r := must(harness.Run(&harness.HashTableFactory{Table: t, Label: "pmwcas (persistent)"}, w,
			func() uint64 { return s.Device().Stats().Flushes }))
		tbl.Add(r.Variant, harness.Throughput(r.OpsPerSec), r.FlushesPer,
			fmt.Sprintf("%.1f%%", harness.OverheadPct(baseline, r.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

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

// runMatrix is the cross-index evaluation: every persistent index
// through four workload shapes under two key distributions. Scan on the
// hash index is reported as unsupported rather than measured — a hash
// table faking a range scan would be benchmarking a lie.
func runMatrix(w harness.Workload, flush time.Duration, jsonPath string) {
	shapes := []struct {
		name    string
		mix     harness.Mix
		preload bool
	}{
		{"load", harness.Mix{Inserts: 100}, false},
		{"read", harness.ReadHeavy, true},
		{"scan", harness.ScanHeavy, true},
		{"mixed", harness.UpdateHeavy, true},
	}
	dists := []harness.Distribution{harness.Uniform, harness.Zipf}
	indexes := []string{"skiplist", "bwtree", "hash"}

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
	for _, ix := range indexes {
		for _, shape := range shapes {
			for _, d := range dists {
				cell := matrixCell{Index: ix, Workload: shape.name, Dist: d.String()}
				if ix == "hash" && shape.mix.Scans > 0 {
					tbl.Add(ix, shape.name, d.String(), "n/a (unordered)", "-")
					doc.Results = append(doc.Results, cell)
					continue
				}
				cw := w
				cw.Mix = shape.mix
				cw.Dist = d
				if !shape.preload {
					cw.Preload = 0
				}
				s := storeFor(pmwcas.Persistent, flush)
				r := must(harness.Run(matrixFactory(s, ix), cw,
					func() uint64 { return s.Device().Stats().Flushes }))
				cell.Supported = true
				cell.OpsPerSec = r.OpsPerSec
				cell.FlushesPerOp = r.FlushesPer
				doc.Results = append(doc.Results, cell)
				tbl.Add(ix, shape.name, d.String(), harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)

	if jsonPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
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
	descriptors := 4096 / n
	if descriptors < 256 {
		descriptors = 256
	}
	s, err := pmwcas.Create(pmwcas.Config{
		Size:         256 << 20,
		Mode:         pmwcas.Persistent,
		Shards:       n,
		Descriptors:  descriptors,
		MaxHandles:   64,
		FlushLatency: flush,
		YieldEvery:   yieldEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "indexbench:", err)
		os.Exit(1)
	}
	return s
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

// runShardMatrix measures the shard-per-core engine: the hash index
// across shard counts, workload shapes, and key distributions, with the
// total device/descriptor budget held constant so the only variable is
// how the store is partitioned.
func runShardMatrix(w harness.Workload, flush time.Duration, counts []int, yieldEvery int, jsonPath string) {
	shapes := []struct {
		name    string
		mix     harness.Mix
		preload bool
	}{
		{"load", harness.Mix{Inserts: 100}, false},
		{"read", harness.ReadHeavy, true},
		{"mixed", harness.UpdateHeavy, true},
	}
	dists := []harness.Distribution{harness.Uniform, harness.Zipf}

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
		for _, shape := range shapes {
			for _, d := range dists {
				cw := w
				cw.Mix = shape.mix
				cw.Dist = d
				if !shape.preload {
					cw.Preload = 0
				}
				s := shardStoreFor(n, flush, yieldEvery)
				f := newShardedHashFactory(s, fmt.Sprintf("hash/%dshard", n))
				r := must(harness.Run(f, cw,
					func() uint64 { return s.Device().Stats().Flushes }))
				doc.Results = append(doc.Results, shardCell{
					Shards: n, Workload: shape.name, Dist: d.String(),
					OpsPerSec: r.OpsPerSec, FlushesPerOp: r.FlushesPer,
				})
				tbl.Add(fmt.Sprint(n), shape.name, d.String(),
					harness.Throughput(r.OpsPerSec), r.FlushesPer)
			}
		}
	}
	tbl.Print(os.Stdout)

	if jsonPath != "" {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(1)
		}
		out = append(out, '\n')
		if err := os.WriteFile(jsonPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "indexbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// runReverse measures E8: reverse scans on the doubly-linked list vs the
// baseline's validate-and-repair prev traversal.
func runReverse(w harness.Workload, flush time.Duration) {
	const scanLen = 100
	tbl := harness.NewTable(
		fmt.Sprintf("E8: reverse scans (%d keys preloaded, %d-key ranges)", w.Preload, scanLen),
		"variant", "scans/s")

	type scanner interface {
		harness.IndexOps
	}
	run := func(label string, ops scanner, rs harness.ReverseScanner) {
		// Preload.
		stride := w.KeySpace / uint64(w.Preload)
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < w.Preload; i++ {
			if err := ops.Insert((uint64(i)*stride)%w.KeySpace+1, uint64(i)); err != nil {
				fmt.Fprintln(os.Stderr, "indexbench: preload:", err)
				os.Exit(1)
			}
		}
		kg := harness.NewKeyGen(harness.Uniform, w.KeySpace-scanLen, 99)
		start := time.Now()
		n := w.Threads * w.OpsPer
		for i := 0; i < n; i++ {
			from := kg.Next()
			if err := rs.ScanReverse(from, from+scanLen, func(uint64, uint64) bool { return true }); err != nil {
				fmt.Fprintln(os.Stderr, "indexbench: scan:", err)
				os.Exit(1)
			}
		}
		tbl.Add(label, harness.Throughput(float64(n)/time.Since(start).Seconds()))
	}

	{
		s := storeFor(pmwcas.Volatile, flush)
		cl := must(s.CASSkipList())
		f := &harness.CASListFactory{List: cl, Label: "cas"}
		ops := f.NewOps(1)
		run("cas singly-linked + fixup", ops, ops.(harness.ReverseScanner))
	}
	{
		s := storeFor(pmwcas.Persistent, flush)
		l := must(s.SkipList())
		f := &harness.SkipListFactory{List: l, Label: "pmwcas"}
		ops := f.NewOps(1)
		run("pmwcas doubly-linked", ops, ops.(harness.ReverseScanner))
	}
	tbl.Print(os.Stdout)
}

func mixLabel(m harness.Mix) string {
	return fmt.Sprintf("r%d/i%d/u%d/d%d/s%d", m.Reads, m.Inserts, m.Updates, m.Deletes, m.Scans)
}
