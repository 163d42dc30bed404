package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"pmwcas"
	"pmwcas/internal/core"
)

// clock is the run's monotonic time base.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// schedule splits a run into phases (ns since the clock's epoch):
// [start, measure) warm-up, [measure, traced) untraced measurement,
// [traced, end) traced measurement. An untraced run has traced == end;
// a traced run measures half the seconds untraced (the overhead
// reference) and half traced. Measurement is cut into short windows; a
// run reports the median window, so a stall that spoils a few windows
// does not move it, while one that recurs in most windows does.
type schedule struct {
	start, measure, traced, end int64
	windowNs                    int64
	windows                     int
}

const (
	warmup = time.Second
	window = 250 * time.Millisecond
)

func newSchedule(c clock, warm time.Duration, seconds int, trace bool) schedule {
	now := c.now()
	s := schedule{start: now, measure: now + int64(warm), windowNs: int64(window)}
	s.end = s.measure + int64(seconds)*int64(time.Second)
	s.traced = s.end
	if trace {
		s.traced = s.measure + (s.end-s.measure)/2
	}
	s.windows = int((s.traced - s.measure + s.windowNs - 1) / s.windowNs)
	return s
}

// window maps an op's start time to its measurement window (-1 outside).
func (s schedule) window(t int64) int {
	if t < s.measure || t >= s.traced {
		return -1
	}
	return int((t - s.measure) / s.windowNs)
}

// opFunc runs one operation of worker w, checks it against the oracle
// and returns its latency class. tr is non-nil only in the traced phase.
type opFunc func(w int, tr *tracer, c clock) int

// markFunc, if set, runs next to the store counter reads at the start
// (end false) and end (end true) of the phase that reports them.
type markFunc func(end bool)

// closedLoop is the outcome of running workers back to back.
type closedLoop struct {
	rec        []*windowed
	tracers    []*tracer
	ops        uint64 // all ops, warm-up included
	untracedN  uint64 // ops started in [measure, traced)
	tracedN    uint64 // ops started in [traced, end)
	startStats counters
	endStats   counters
	samples    statSamples
	gc         gcMark
}

// runClosedLoop runs nWorkers closed-loop workers over the schedule. In
// a traced run it snapshots the store's counters at the traced phase's
// boundaries and samples its gauges throughout.
func runClosedLoop(c clock, s schedule, o options, nWorkers int, store *pmwcas.Store, op opFunc, mark markFunc) *closedLoop {
	cl := &closedLoop{}
	counts := make([][3]uint64, nWorkers)
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		cl.rec = append(cl.rec, newWindowed(s.windows))
		if o.trace {
			cl.tracers = append(cl.tracers, newTracer(w, 1<<17))
		}
	}
	sampler := startSampler(store, o.trace)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := cl.rec[w]
			var tr *tracer
			for {
				t0 := c.now()
				if t0 >= s.end {
					return
				}
				if t0 >= s.traced && o.trace {
					tr = cl.tracers[w]
				}
				class := op(w, tr, c)
				t1 := c.now()
				rec.record(s.window(t0), class, t1-t0)
				switch {
				case t0 < s.measure:
					counts[w][0]++
				case t0 < s.traced:
					counts[w][1]++
				default:
					counts[w][2]++
				}
			}
		}(w)
	}
	// Counters are read at the start of the phase that reports them: the
	// untraced measurement, or the traced half of a traced run.
	from := s.measure
	if o.trace {
		from = s.traced
	}
	sleepUntil(c, from)
	g0 := markGC()
	cl.startStats = readCounters(store)
	if mark != nil {
		mark(false)
	}
	wg.Wait()
	cl.endStats = readCounters(store)
	if mark != nil {
		mark(true)
	}
	cl.gc = markGC().since(g0)
	cl.samples = sampler.stop()
	for _, n := range counts {
		cl.ops += n[0] + n[1] + n[2]
		cl.untracedN += n[1]
		cl.tracedN += n[2]
	}
	return cl
}

func sleepUntil(c clock, t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// gcMark is a point-in-time reading of the Go runtime's allocation and
// collection counters.
type gcMark struct {
	allocBytes uint64
	cycles     uint64
	pauseNs    uint64
}

func markGC() gcMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcMark{allocBytes: ms.TotalAlloc, cycles: uint64(ms.NumGC), pauseNs: ms.PauseTotalNs}
}

func (m gcMark) since(o gcMark) gcMark {
	return gcMark{allocBytes: m.allocBytes - o.allocBytes, cycles: m.cycles - o.cycles, pauseNs: m.pauseNs - o.pauseNs}
}

// liveHeapMiB forces a collection and returns the live heap it found.
// Reading it at fixed checkpoints (after each set-up, after the timed
// phase, after recovery) makes the peak a property of the data the run
// holds, not of when the collector happened to run.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// counters are the store's cumulative activity counters, read without
// Store.Stats: that call also sums allocator occupancy by loading every
// bitmap word through the device, which would show up in the very
// device counts being measured.
type counters struct {
	device pmwcas.DeviceStats
	pool   pmwcas.PoolStats
	epoch  pmwcas.EpochStats
}

func readCounters(store *pmwcas.Store) counters {
	c := counters{device: store.Device().Stats(), pool: store.PoolStats()}
	for i := 0; i < store.ShardCount(); i++ {
		e := store.Shard(i).Epochs().Stats()
		c.epoch.Advances += e.Advances
		c.epoch.Deferred += e.Deferred
		c.epoch.Freed += e.Freed
		c.epoch.Pending += e.Pending
	}
	return c
}

// statSamples are gauges sampled during a traced run.
type statSamples struct {
	freeDescMin int
	pendingMax  uint64
}

type sampler struct {
	stopc chan struct{}
	done  chan statSamples
}

// startSampler polls the shards' free descriptor lists and epoch
// backlogs every 10ms in a traced run (an untraced run keeps its hands
// off the store).
func startSampler(store *pmwcas.Store, on bool) *sampler {
	sm := &sampler{stopc: make(chan struct{}), done: make(chan statSamples, 1)}
	var pools []*core.Pool
	if on {
		for i := 0; i < store.ShardCount(); i++ {
			pools = append(pools, store.Shard(i).PMwCASHandle().Pool())
		}
	}
	go func() {
		out := statSamples{freeDescMin: -1}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if on {
				free := 0
				for _, p := range pools {
					free += p.FreeDescriptors()
				}
				if out.freeDescMin < 0 || free < out.freeDescMin {
					out.freeDescMin = free
				}
				out.pendingMax = max(out.pendingMax, readCounters(store).epoch.Pending)
			}
			select {
			case <-sm.stopc:
				sm.done <- out
				return
			case <-t.C:
			}
		}
	}()
	return sm
}

func (sm *sampler) stop() statSamples {
	close(sm.stopc)
	return <-sm.done
}

// timedSetups builds a workload's initial state n times and keeps the
// last; set-up time is the median. Earlier builds are torn down and
// collected before the next starts, so only one is ever live.
func timedSetups[T any](n int, build func() (T, error), teardown func(T), peak *float64) (T, float64, error) {
	var times []float64
	var cur T
	for i := 0; i < n; i++ {
		t0 := time.Now()
		st, err := build()
		if err != nil {
			return cur, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		*peak = max(*peak, liveHeapMiB())
		if i < n-1 {
			teardown(st)
		}
		cur = st
	}
	return cur, median(times), nil
}

// layerCounts fills the per-op counter metrics from two store snapshots
// taken around the traced phase.
func layerCounts(rep *report, a, b counters, ops uint64, sm statSamples) {
	per := func(x, y uint64) float64 { return float64(y-x) / float64(max(ops, 1)) }
	v := rep.values
	v["nvram.loads_per_op"] = per(a.device.Loads, b.device.Loads)
	v["nvram.stores_per_op"] = per(a.device.Stores, b.device.Stores)
	v["nvram.cas_per_op"] = per(a.device.CASes, b.device.CASes)
	v["nvram.flushes_per_op"] = per(a.device.Flushes, b.device.Flushes)
	v["nvram.fences_per_op"] = per(a.device.Fences, b.device.Fences)
	v["core.descriptors_per_op"] = per(a.pool.Allocated, b.pool.Allocated)
	if n := b.pool.Allocated - a.pool.Allocated; n > 0 {
		v["core.success_ratio"] = float64(b.pool.Succeeded-a.pool.Succeeded) / float64(n)
	}
	v["core.helps_per_op"] = per(a.pool.Helps, b.pool.Helps)
	v["core.discarded_per_op"] = per(a.pool.Discarded, b.pool.Discarded)
	v["core.free_descriptors_min"] = float64(max(sm.freeDescMin, 0))
	v["epoch.deferred_per_op"] = per(a.epoch.Deferred, b.epoch.Deferred)
	v["epoch.freed_per_op"] = per(a.epoch.Freed, b.epoch.Freed)
	v["epoch.pending_max"] = float64(sm.pendingMax)
	v["epoch.advances_per_op"] = per(a.epoch.Advances, b.epoch.Advances)
}

// recoveries is how many times each run recovers its crashed store.
const recoveries = 15

// recoverTimed crashes the (closed, quiescent) store and recovers it n
// times, returning the median recovery time and the last pass's
// statistics. After Close nothing is in flight, so every pass recovers
// the same durable image. Each pass starts from a collected heap, so one
// pass's garbage is not charged to the next.
func recoverTimed(store *pmwcas.Store, n int) (float64, pmwcas.RecoveryStats, error) {
	var times []float64
	var rst pmwcas.RecoveryStats
	for i := 0; i < n; i++ {
		if err := store.Crash(); err != nil {
			return 0, rst, err
		}
		runtime.GC()
		t0 := time.Now()
		r, err := store.Recover()
		if err != nil {
			return 0, rst, err
		}
		times = append(times, time.Since(t0).Seconds())
		rst = r
	}
	return median(times), rst, nil
}

// skew is the max/min ratio of per-shard op counts.
func skew(perShard []uint64) float64 {
	s := append([]uint64(nil), perShard...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 || s[0] == 0 {
		return 0
	}
	return float64(s[len(s)-1]) / float64(s[0])
}

// closedLoopMetrics fills the metrics every workload reports the same
// way: end-to-end figures from an untraced run, per-layer counters and
// runtime figures from a traced one.
func closedLoopMetrics(rep *report, o options, cl *closedLoop, s schedule, setup, recoverS, peak float64) {
	v := rep.values
	if o.trace {
		layerCounts(rep, cl.startStats, cl.endStats, cl.tracedN, cl.samples)
		v["go.gc_cycles"] = float64(cl.gc.cycles)
		v["go.gc_pause_ms"] = float64(cl.gc.pauseNs) / 1e6
		untraced := float64(cl.untracedN) / float64(s.traced-s.measure)
		traced := float64(cl.tracedN) / float64(s.end-s.traced)
		if traced > 0 {
			v["bench.trace_overhead_pct"] = (untraced/traced - 1) * 100
		}
		return
	}
	lat, tput := summarize(cl.rec, float64(s.windowNs)/1e9, 0.99)
	v["throughput_ops_s"] = tput
	latencyMetrics(rep, lat)
	v["setup_s"] = setup
	v["recover_s"] = recoverS
	v["alloc_bytes_per_op"] = float64(cl.gc.allocBytes) / float64(max(cl.untracedN, 1))
	v["peak_heap_mb"] = peak
}

// latencyMetrics fills the gated latency metrics — each class's median
// and p99, the highest percentile with at least ten samples beyond it —
// and prints what the JSON result does not carry: the p90s, the
// quantile each p99 used and its sample count, the scan figures where
// the workload scans, and the failed share.
func latencyMetrics(rep *report, lat [nClasses]latencyReport) {
	v := rep.values
	v["read_p50_us"] = lat[classRead].p50 / 1e3
	v["read_p99_us"] = lat[classRead].tail / 1e3
	v["write_p50_us"] = lat[classWrite].p50 / 1e3
	v["write_p99_us"] = lat[classWrite].tail / 1e3
	names := [nClasses]string{"read", "write", "scan"}
	if lat[classScan].samples > 0 {
		rep.extra = append(rep.extra,
			metric{"scan_p50_us", "us", lat[classScan].p50 / 1e3},
			metric{"scan_p99_us", "us", lat[classScan].tail / 1e3})
	}
	for c, l := range lat {
		if l.samples == 0 {
			continue
		}
		rep.extra = append(rep.extra,
			metric{names[c] + "_p90_us", "us", l.p90 / 1e3},
			metric{names[c] + "_p99_quantile", "q", l.tailQ},
			metric{names[c] + "_samples", "count", float64(l.samples)})
	}
	rep.extra = append(rep.extra, metric{"failed_share", "ratio", float64(rep.failed) / float64(max(rep.attempted, 1))})
}

// recoveryMetrics fills the recovery layer's per-layer figures.
func recoveryMetrics(rep *report, rst pmwcas.RecoveryStats, checkS float64) {
	rep.values["recovery.scanned"] = float64(rst.Scanned)
	rep.values["recovery.rolled_forward"] = float64(rst.RolledForward)
	rep.values["recovery.rolled_back"] = float64(rst.RolledBack)
	rep.values["recovery.check_s"] = checkS
}
