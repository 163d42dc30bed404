// Command perfbench is the repository benchmark: three seeded workloads
// (kv-server, hash-point, bwtree-churn) that drive the store through its
// public API, check every result against an oracle, and print end-to-end
// metrics (untraced run) or per-layer metrics (traced run). The last line
// of standard output is one JSON object; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"time"
)

// metric is one named, united figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"setup_s", "s"},
	{"recover_s", "s"},
	{"alloc_bytes_per_op", "B/op"},
	{"peak_heap_mb", "MiB"},
}

// perLayer lists the per-layer metrics every traced run reports. A
// layer a workload does not pass through reads 0.
var perLayer = []struct{ name, unit string }{
	{"nvram.loads_per_op", "count/op"},
	{"nvram.stores_per_op", "count/op"},
	{"nvram.cas_per_op", "count/op"},
	{"nvram.flushes_per_op", "count/op"},
	{"nvram.fences_per_op", "count/op"},
	{"core.descriptors_per_op", "count/op"},
	{"core.success_ratio", "ratio"},
	{"core.helps_per_op", "count/op"},
	{"core.discarded_per_op", "count/op"},
	{"core.free_descriptors_min", "count"},
	{"epoch.deferred_per_op", "count/op"},
	{"epoch.freed_per_op", "count/op"},
	{"epoch.pending_max", "count"},
	{"epoch.advances_per_op", "count/op"},
	{"alloc.bytes_per_live_key", "B"},
	{"recovery.scanned", "count"},
	{"recovery.rolled_forward", "count"},
	{"recovery.rolled_back", "count"},
	{"recovery.check_s", "s"},
	{"store.shard_skew", "ratio"},
	{"hashtable.get_ns_p50", "ns"},
	{"hashtable.update_ns_p50", "ns"},
	{"bwtree.get_ns_p50", "ns"},
	{"bwtree.insert_ns_p50", "ns"},
	{"bwtree.delete_ns_p50", "ns"},
	{"bwtree.scan_ns_p50", "ns"},
	{"blobkv.get_ns_p50", "ns"},
	{"blobkv.put_ns_p50", "ns"},
	{"blobkv.delete_ns_p50", "ns"},
	{"blobkv.scan_ns_p50", "ns"},
	{"wire.encode_ns_p50", "ns"},
	{"wire.decode_ns_p50", "ns"},
	{"server.get_ns_p50", "ns"},
	{"server.put_ns_p50", "ns"},
	{"server.scan_ns_p50", "ns"},
	{"server.pipeline_depth_p50", "count"},
	{"client.request_self_ns_p50", "ns"},
	{"client.write_calls_per_op", "count/op"},
	{"client.read_calls_per_op", "count/op"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.late_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
}

// options is one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	outDir   string // span files land here
}

// report is what a workload run produces.
type report struct {
	mu        sync.Mutex // guards failed and failures
	attempted uint64
	failed    uint64
	failures  []string // first few oracle failures, for stderr
	values    map[string]float64
	extra     []metric // printed, not part of the JSON result
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail counts one oracle failure and keeps its message if it is among
// the first few.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*report, error){
	"kv-server":    runKVServer,
	"hash-point":   runHashPoint,
	"bwtree-churn": runBwTreeChurn,
}

// runLimit bounds a whole run: set-ups, measurement, recovery and checks.
const runLimit = 170 * time.Second

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred calls run before exit.
func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "kv-server, hash-point or bwtree-churn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same op streams")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds (1 to 60)")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics and writing a span file")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for span files")
	flag.Parse()
	o.trace = *trace == 1
	workload, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || o.seconds > 60 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload kv-server|hash-point|bwtree-churn --seed N --seconds S --trace 0|1")
		return 2
	}
	// Two cores, two workers: the sizing every figure is stated for. The
	// collector's pacing is pinned too, so a GOGC in the caller's
	// environment cannot move the heap and allocation figures.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	// A run that hangs is a failed run: report where every goroutine is
	// and exit before the caller's time limit.
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v; goroutines:\n", o.workload, runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})
	defer watchdog.Stop()

	start := time.Now()
	rep, err := workload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "oracle:", f)
	}
	if err := emit(o, rep, time.Since(start)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed the oracle\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// emit prints every metric as "name value unit", then the JSON result
// line.
func emit(o options, rep *report, wall time.Duration) error {
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: rep.failed == 0 && rep.attempted > 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jm{}}
	fmt.Printf("# %s seed=%d seconds=%d trace=%v wall=%.1fs\n", o.workload, o.seed, o.seconds, o.trace, wall.Seconds())
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok && !o.trace {
			return fmt.Errorf("workload did not measure %s", m.name)
		}
		fmt.Printf("%-28s %14.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jm{Value: v, Unit: m.unit}
	}
	for _, m := range rep.extra {
		fmt.Printf("%-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// spanPath names the span file of a traced run.
func spanPath(o options) string {
	return filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
}
