// Command experiments regenerates every table and figure of the paper's
// evaluation in one run (experiment index E1-E9 in DESIGN.md, plus E11,
// the traversal flush-elision delta of EXPERIMENTS.md, and the hash
// table's volatile-vs-persistent table), printing paper-style tables.
// Absolute numbers reflect the simulated NVRAM substrate; the shapes —
// who wins, by what factor, where contention and persistence costs
// bite — are the reproduction targets.
//
// Usage:
//
//	experiments [-quick] [-threads n] [-flushns n] [-yield n] [-reps n]
//	            [-ablations] [-only name]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"pmwcas"
	"pmwcas/internal/core"
	"pmwcas/internal/harness"
	"pmwcas/internal/htm"
	"pmwcas/internal/nvram"
)

type scale struct {
	microOps int
	indexOps int
	keySpace uint64
	preload  int
	scanOps  int
	recPools []int
}

// experiment is one entry of the dispatch table: a run function and
// the -only names that select it.
type experiment struct {
	names []string
	run   func(threads int, sc scale, flush time.Duration)
}

// experiments is the dispatch table, in run order. -only is validated
// against it, so there is no second list of experiment names.
var experiments = []experiment{
	{[]string{"e1", "e2"}, e1e2},
	{[]string{"e3"}, e3},
	{[]string{"e4"}, e4},
	{[]string{"e5"}, e5},
	{[]string{"e6"}, e6},
	{[]string{"hash"}, hashVariants},
	{[]string{"e7"}, func(_ int, sc scale, _ time.Duration) { e7(sc) }},
	{[]string{"e8"}, func(_ int, sc scale, flush time.Duration) { e8(sc, flush) }},
	{[]string{"e9"}, func(int, scale, time.Duration) { e9() }},
	{[]string{"e11"}, e11},
}

// experimentNames lists every name -only accepts, in run order.
func experimentNames() []string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.names...)
	}
	return names
}

// selectExperiments returns the experiments an -only value selects:
// all of them for the empty string, otherwise the one answering to the
// name.
func selectExperiments(only string) ([]experiment, error) {
	if only == "" {
		return experiments, nil
	}
	for _, e := range experiments {
		if slices.Contains(e.names, only) {
			return []experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", only, strings.Join(experimentNames(), ", "))
}

func main() {
	quick := flag.Bool("quick", false, "reduced parameters (seconds instead of minutes)")
	threads := flag.Int("threads", 4, "worker goroutines")
	flushNS := flag.Int("flushns", 100, "simulated CLWB latency in ns (0 = free flushes)")
	yield := flag.Int("yield", 4, "interleave logical threads every N device accesses (0 = off)")
	runAblations := flag.Bool("ablations", false, "also run the design-knob ablation sweeps (A1-A4)")
	repsFlag := flag.Int("reps", 3, "repetitions per index-workload cell (median reported)")
	only := flag.String("only", "", "run a single experiment: "+strings.Join(experimentNames(), ", ")+" (e1 and e2 run together)")
	flag.Parse()
	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	yieldEvery = *yield
	reps = *repsFlag
	if *quick {
		reps = 1
	}

	sc := scale{
		microOps: 200000, indexOps: 50000, keySpace: 1 << 20, preload: 1 << 19,
		scanOps: 20000, recPools: []int{1024, 4096, 16384},
	}
	if *quick {
		sc = scale{
			microOps: 20000, indexOps: 5000, keySpace: 1 << 14, preload: 1 << 13,
			scanOps: 2000, recPools: []int{1024, 4096},
		}
	}
	flush := time.Duration(*flushNS) * time.Nanosecond

	for _, e := range selected {
		e.run(*threads, sc, flush)
	}
	if *runAblations {
		ablations(*threads, sc)
	}
	if badRuns > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d run(s) produced incorrect results\n", badRuns)
		os.Exit(1)
	}
}

// badRuns counts experiment cells whose correctness check failed (e.g. a
// torn recovery); a nonzero count fails the whole command.
var badRuns int

// yieldEvery interleaves logical threads on few-core hosts (see -yield).
var yieldEvery int

// reps is the repetition count for index workload cells; the median
// throughput is reported (shared-host timing noise dwarfs real deltas on
// single runs).
var reps int

// runMedian runs the workload reps times on the same (preloaded) store
// and returns the run with median throughput.
func runMedian(s *pmwcas.Store, f harness.IndexFactory, w harness.Workload) (harness.Result, error) {
	n := reps
	if n < 1 {
		n = 1
	}
	results := make([]harness.Result, 0, n)
	for i := 0; i < n; i++ {
		ww := w
		if i > 0 {
			ww.Preload = 0 // already loaded
		}
		r, err := harness.Run(f, ww, func() uint64 { return s.Device().Stats().Flushes })
		if err != nil {
			return harness.Result{}, err
		}
		results = append(results, r)
	}
	sort.Slice(results, func(a, b int) bool { return results[a].OpsPerSec < results[b].OpsPerSec })
	return results[len(results)/2], nil
}

func micro(v harness.MicroVariant, threads, ops, array, words int, flush time.Duration) harness.MicroResult {
	r, err := harness.RunMicro(harness.MicroConfig{
		Variant: v, Threads: threads, OpsPer: ops,
		ArrayWords: array, WordsPerOp: words,
		FlushLatency: flush,
		HTM:          htm.Config{},
		YieldEvery:   yieldEvery,
	})
	if err != nil {
		fail(err)
	}
	return r
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

// E1/E2: MwCAS microbenchmark under low and high contention.
func e1e2(threads int, sc scale, flush time.Duration) {
	for _, cell := range []struct {
		name  string
		array int
	}{
		{"E1: MwCAS microbenchmark — LOW contention (100k-word array, 4-word ops)", 100000},
		{"E2: MwCAS microbenchmark — HIGH contention (8-word array, 4-word ops)", 8},
	} {
		tbl := harness.NewTable(cell.name,
			"variant", "ops/s", "success", "helps/op", "flushes/op", "htm fallbacks")
		for _, v := range []harness.MicroVariant{harness.VariantMwCAS, harness.VariantPMwCAS, harness.VariantHTM} {
			r := micro(v, threads, sc.microOps, cell.array, 4, flush)
			fb := "-"
			if v == harness.VariantHTM {
				fb = fmt.Sprint(r.HTMStats.Fallbacks)
			}
			tbl.Add(string(v), harness.Throughput(r.OpsPerSec), r.SuccessRate, r.HelpsPer, r.FlushesPer, fb)
		}
		tbl.Print(os.Stdout)
	}
}

// E3: cost vs words per descriptor.
func e3(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable("E3: effect of word count per PMwCAS (low contention)",
		"words", "mwcas ops/s", "pmwcas ops/s", "pmwcas flushes/op", "pmwcas overhead")
	for _, w := range []int{1, 2, 4, 8, 16} {
		m := micro(harness.VariantMwCAS, threads, sc.microOps/2, 100000, w, flush)
		p := micro(harness.VariantPMwCAS, threads, sc.microOps/2, 100000, w, flush)
		tbl.Add(w, harness.Throughput(m.OpsPerSec), harness.Throughput(p.OpsPerSec),
			p.FlushesPer, fmt.Sprintf("%.1f%%", harness.OverheadPct(m.OpsPerSec, p.OpsPerSec)))
	}
	tbl.Print(os.Stdout)
}

// E4: persistence cost anatomy (flushes and helps per op).
func e4(threads int, sc scale, flush time.Duration) {
	tbl := harness.NewTable("E4: persistence anatomy (4-word PMwCAS)",
		"contention", "flushes/op", "helps/op", "success")
	for _, cell := range []struct {
		label string
		array int
	}{{"low (100k words)", 100000}, {"medium (1k)", 1024}, {"high (8)", 8}} {
		r := micro(harness.VariantPMwCAS, threads, sc.microOps/2, cell.array, 4, flush)
		tbl.Add(cell.label, r.FlushesPer, r.HelpsPer, r.SuccessRate)
	}
	tbl.Print(os.Stdout)
}

func newStore(mode pmwcas.Mode, flush time.Duration) *pmwcas.Store {
	runtime.GC() // release the previous variant's device before allocating
	s, err := pmwcas.Create(pmwcas.Config{
		Size: 256 << 20, Mode: mode, Descriptors: 4096, MaxHandles: 256,
		FlushLatency: flush, YieldEvery: yieldEvery,
	})
	if err != nil {
		fail(err)
	}
	return s
}

// variant is one row of an index table: the store mode it runs under
// and how to open the index on that store.
type variant struct {
	label string
	mode  pmwcas.Mode
	open  func(*pmwcas.Store) (harness.IndexFactory, error)
}

// start opens the variant's index on a fresh store.
func (v variant) start(flush time.Duration) (*pmwcas.Store, harness.IndexFactory) {
	s := newStore(v.mode, flush)
	f, err := v.open(s)
	if err != nil {
		fail(err)
	}
	return s, f
}

func casList(s *pmwcas.Store) (harness.IndexFactory, error) {
	l, err := s.CASSkipList()
	return &harness.CASListFactory{List: l}, err
}

func skipList(s *pmwcas.Store) (harness.IndexFactory, error) {
	l, err := s.SkipList()
	return &harness.SkipListFactory{List: l}, err
}

func bwTree(smo pmwcas.SMOMode) func(*pmwcas.Store) (harness.IndexFactory, error) {
	return func(s *pmwcas.Store) (harness.IndexFactory, error) {
		t, err := s.BwTree(pmwcas.BwTreeOptions{SMO: smo})
		return &harness.BwTreeFactory{Tree: t}, err
	}
}

func hashTable(s *pmwcas.Store) (harness.IndexFactory, error) {
	t, err := s.HashTable(pmwcas.HashTableOptions{})
	return &harness.HashTableFactory{Table: t}, err
}

// variantTables prints one table per mix (read-heavy, then
// update-heavy). Each variant runs on a fresh store; the first is the
// baseline, named base in the header, that the overhead column charges
// the others against.
func variantTables(title, base string, threads int, sc scale, flush time.Duration, variants []variant) {
	for _, mix := range []struct {
		label string
		mix   harness.Mix
	}{{"read-heavy 90/10", harness.ReadHeavy}, {"update-heavy 50/50", harness.UpdateHeavy}} {
		w := harness.Workload{
			Threads: threads, OpsPer: sc.indexOps, KeySpace: sc.keySpace,
			Dist: harness.Uniform, Mix: mix.mix, Preload: sc.preload,
		}
		tbl := harness.NewTable(title+" — "+mix.label,
			"variant", "ops/s", "flushes/op", "overhead vs "+base)
		var baseOps float64
		for i, v := range variants {
			s, f := v.start(flush)
			r, err := runMedian(s, f, w)
			if err != nil {
				fail(err)
			}
			overhead := "-"
			if i == 0 {
				baseOps = r.OpsPerSec
			} else {
				overhead = fmt.Sprintf("%.1f%%", harness.OverheadPct(baseOps, r.OpsPerSec))
			}
			tbl.Add(v.label, harness.Throughput(r.OpsPerSec), r.FlushesPer, overhead)
		}
		tbl.Print(os.Stdout)
	}
}

// E5: skip list variants across mixes.
func e5(threads int, sc scale, flush time.Duration) {
	variantTables("E5: skip list", "cas", threads, sc, flush, []variant{
		{"cas (volatile)", pmwcas.Volatile, casList},
		{"mwcas (volatile)", pmwcas.Volatile, skipList},
		{"pmwcas (persistent)", pmwcas.Persistent, skipList},
	})
}

// E6: Bw-tree variants across mixes.
func e6(threads int, sc scale, flush time.Duration) {
	variantTables("E6: Bw-tree", "cas", threads, sc, flush, []variant{
		{"cas (volatile)", pmwcas.Volatile, bwTree(pmwcas.SMOSingleCAS)},
		{"mwcas (volatile)", pmwcas.Volatile, bwTree(pmwcas.SMOPMwCAS)},
		{"pmwcas (persistent)", pmwcas.Persistent, bwTree(pmwcas.SMOPMwCAS)},
	})
}

// Hash table variants across mixes. The hash table has no
// single-word-CAS baseline (every mutation is inherently multi-word), so
// the volatile MwCAS run is the reference the persistence overhead is
// charged against.
func hashVariants(threads int, sc scale, flush time.Duration) {
	variantTables("Hash table", "volatile", threads, sc, flush, []variant{
		{"mwcas (volatile)", pmwcas.Volatile, hashTable},
		{"pmwcas (persistent)", pmwcas.Persistent, hashTable},
	})
}

// E11: traversal flush elision (ROADMAP item 3). Runs the persistent
// skip list and Bw-tree under concurrent workloads with elision off
// (the paper's conservative flush-before-read on every dirty word) and
// on (descend paths use ReadTraverse; only CAS targets are persisted),
// and reports the flush-per-op delta. Read-side flushes are
// contention-driven — a single-threaded run sees almost none because
// phase 2 eagerly persists — so this cell is only meaningful with
// threads > 1 and yield interleaving.
func e11(threads int, sc scale, flush time.Duration) {
	defer core.SetFlushElision(true) // restore the default for later cells
	for _, cell := range []struct {
		label string
		mix   harness.Mix
		dist  harness.Distribution
		keys  uint64
		pre   int
	}{
		{"read-heavy 90/10 uniform", harness.ReadHeavy, harness.Uniform, sc.keySpace, sc.preload},
		{"update-heavy 50/50 uniform", harness.UpdateHeavy, harness.Uniform, sc.keySpace, sc.preload},
		// Zipfian skew over a small key space: traversals repeatedly
		// pass hot, recently-written words, maximizing the dirty
		// encounters the conservative rule would flush.
		{"update-heavy 50/50 zipf hot", harness.UpdateHeavy, harness.Zipf, sc.keySpace >> 6, sc.preload >> 6},
	} {
		w := harness.Workload{
			Threads: threads, OpsPer: sc.indexOps, KeySpace: cell.keys,
			Dist: cell.dist, Mix: cell.mix, Preload: cell.pre,
		}
		tbl := harness.NewTable("E11: traversal flush elision — "+cell.label,
			"index", "elision", "ops/s", "flushes/op", "flush reduction")
		for _, idx := range []variant{
			{"skip list", pmwcas.Persistent, skipList},
			{"bw-tree", pmwcas.Persistent, bwTree(pmwcas.SMOPMwCAS)},
		} {
			var base float64 // flushes/op with elision off
			for _, el := range []struct {
				label string
				on    bool
			}{{"off", false}, {"on", true}} {
				core.SetFlushElision(el.on)
				s, f := idx.start(flush)
				r, err := runMedian(s, f, w)
				if err != nil {
					fail(err)
				}
				red := "-"
				if el.on && base > 0 {
					red = fmt.Sprintf("%.1f%%", (1-r.FlushesPer/base)*100)
				} else {
					base = r.FlushesPer
				}
				tbl.Add(idx.label, el.label, harness.Throughput(r.OpsPerSec), r.FlushesPer, red)
			}
		}
		tbl.Print(os.Stdout)
	}
}

// E7: recovery time. This is also the recovery correctness gate: a torn
// row fails the command.
func e7(sc scale) {
	tbl := harness.NewTable("E7: recovery time vs descriptor pool and in-flight ops",
		"pool", "in-flight", "recovery", "per descriptor", "all-or-nothing")
	for _, pool := range sc.recPools {
		for _, inflight := range []int{0, pool / 4, pool} {
			r, err := harness.RunRecovery(harness.RecoveryBench{PoolSize: pool, InFlight: inflight})
			if err != nil {
				fail(err)
			}
			verdict := "OK"
			if !r.CorrectOK {
				verdict = "TORN"
				badRuns++
			}
			tbl.Add(pool, inflight, r.Elapsed, r.PerDesc, verdict)
		}
	}
	tbl.Print(os.Stdout)
}

// E8: reverse scans, doubly-linked vs baseline fix-up traversal.
func e8(sc scale, flush time.Duration) {
	const scanLen = 100
	tbl := harness.NewTable("E8: reverse range scans (100-key ranges)",
		"variant", "scans/s")
	stride := max(sc.keySpace/uint64(sc.preload), 1)
	for _, v := range []variant{
		{"cas + prev fix-up", pmwcas.Volatile, casList},
		{"pmwcas doubly-linked", pmwcas.Persistent, skipList},
	} {
		_, f := v.start(flush)
		ops := f.NewOps(1)
		for i := 0; i < sc.preload; i++ {
			if err := ops.Insert((uint64(i)*stride)%sc.keySpace+1, uint64(i)); err != nil {
				fail(err)
			}
		}
		rs := ops.(harness.ReverseScanner)
		kg := harness.NewKeyGen(harness.Uniform, sc.keySpace-scanLen, 7)
		start := time.Now()
		for i := 0; i < sc.scanOps; i++ {
			from := kg.Next()
			if err := rs.ScanReverse(from, from+scanLen, func(uint64, uint64) bool { return true }); err != nil {
				fail(err)
			}
		}
		tbl.Add(v.label, harness.Throughput(float64(sc.scanOps)/time.Since(start).Seconds()))
	}
	tbl.Print(os.Stdout)
}

// E9: descriptor space analysis (Appendix B shape).
func e9() {
	tbl := harness.NewTable("E9: descriptor pool space (bytes)",
		"words/desc", "bytes/desc", "pool=4xthreads(48)", "pool=16384")
	for _, w := range []int{4, 8, 16} {
		dev := nvram.New(1 << 20)
		l := nvram.NewLayout(dev)
		pool, err := core.NewPool(core.Config{
			Device: dev, Region: l.Carve(core.PoolSize(64, w)),
			DescriptorCount: 64, WordsPerDescriptor: w, Mode: core.Volatile,
		})
		if err != nil {
			fail(err)
		}
		per, _ := pool.SpaceAnalysis()
		tbl.Add(w, per, per*4*48, per*16384)
	}
	tbl.Print(os.Stdout)
}
