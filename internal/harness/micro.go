package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pmwcas/internal/core"
	"pmwcas/internal/htm"
	"pmwcas/internal/nvram"
)

// MicroVariant names a multi-word-CAS implementation under test in the
// microbenchmarks (E1-E4).
type MicroVariant string

// Microbenchmark variants.
const (
	// VariantPMwCAS is the persistent multi-word CAS.
	VariantPMwCAS MicroVariant = "pmwcas"
	// VariantMwCAS is the identical code with persistence disabled.
	VariantMwCAS MicroVariant = "mwcas"
	// VariantHTM is the simulated hardware-transactional MwCAS.
	VariantHTM MicroVariant = "htm"
)

// MicroConfig describes one microbenchmark cell.
type MicroConfig struct {
	Variant    MicroVariant
	Threads    int
	OpsPer     int // attempts per thread
	ArrayWords int // shared word-array size — the contention knob
	WordsPerOp int // words per MwCAS (descriptor size)

	FlushLatency time.Duration // simulated CLWB cost (pmwcas only)
	HTM          htm.Config    // HTM knobs (htm only)

	// YieldEvery interleaves logical threads every N device accesses so
	// contention manifests on hosts with fewer cores than threads.
	YieldEvery int

	Descriptors int // pool size; default 4 x threads (paper §5.1)
}

// MicroResult is one measured microbenchmark cell.
type MicroResult struct {
	Variant     MicroVariant
	Threads     int
	Attempts    int
	Succeeded   int
	Elapsed     time.Duration
	OpsPerSec   float64 // successful operations per second
	SuccessRate float64
	FlushesPer  float64 // device flushes per attempt
	HelpsPer    float64 // cooperative helps per attempt (descriptor modes)
	HTMStats    htm.Stats
}

// allocRetryWindow bounds RunMicro's reclaim-and-allocate loop on an
// exhausted pool. Descriptors another thread retired come back once that
// thread leaves its epoch guard, which a descheduled thread may not do
// for a scheduler slice or more; the bound keeps a pool whose free
// descriptors sit in finished threads' caches from hanging a cell.
const allocRetryWindow = 100 * time.Millisecond

// RunMicro executes one microbenchmark cell: each thread repeatedly picks
// WordsPerOp distinct random words from the shared array, reads them, and
// attempts to advance each by one in a single multi-word CAS. Failed
// attempts are counted, not retried — the success rate under contention
// is itself a measurement. An exhausted descriptor pool is not a failed
// attempt: the thread reclaims and allocates again, and only counts the
// attempt failed if nothing is freed within allocRetryWindow. Attempts of
// different threads overlap (see overlap).
func RunMicro(cfg MicroConfig) (MicroResult, error) {
	if cfg.Threads <= 0 || cfg.OpsPer <= 0 {
		return MicroResult{}, fmt.Errorf("harness: bad micro config %+v", cfg)
	}
	if cfg.ArrayWords < cfg.WordsPerOp {
		return MicroResult{}, fmt.Errorf("harness: array %d < words per op %d", cfg.ArrayWords, cfg.WordsPerOp)
	}
	if cfg.Descriptors == 0 {
		cfg.Descriptors = 4 * cfg.Threads
	}

	var opts []nvram.Option
	if cfg.FlushLatency > 0 {
		opts = append(opts, nvram.WithFlushLatency(cfg.FlushLatency))
	}
	if cfg.YieldEvery > 0 {
		opts = append(opts, nvram.WithYield(cfg.YieldEvery))
	}
	poolBytes := core.PoolSize(cfg.Descriptors, cfg.WordsPerOp)
	dev := nvram.New(poolBytes+uint64(cfg.ArrayWords)*nvram.WordSize+1<<12, opts...)
	layout := nvram.NewLayout(dev)
	poolReg := layout.Carve(poolBytes)
	arrReg := layout.Carve(uint64(cfg.ArrayWords) * nvram.WordSize)
	dev.FlushAll()

	addrAt := func(i int) nvram.Offset { return arrReg.Base + nvram.Offset(i)*nvram.WordSize }

	res := MicroResult{Variant: cfg.Variant, Threads: cfg.Threads}
	succ := make([]int, cfg.Threads)
	var wg sync.WaitGroup
	var ov overlap
	ov.live.Store(int32(cfg.Threads))
	flushes0 := dev.Stats().Flushes

	switch cfg.Variant {
	case VariantPMwCAS, VariantMwCAS:
		mode := core.Persistent
		if cfg.Variant == VariantMwCAS {
			mode = core.Volatile
		}
		pool, err := core.NewPool(core.Config{
			Device: dev, Region: poolReg,
			DescriptorCount: cfg.Descriptors, WordsPerDescriptor: cfg.WordsPerOp,
			Mode: mode,
		})
		if err != nil {
			return MicroResult{}, err
		}
		start := time.Now()
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				defer ov.live.Add(-1)
				h := pool.NewHandle()
				rng := rand.New(rand.NewSource(int64(t)*6151 + 3))
				idx := make([]int, cfg.WordsPerOp)
				var last uint64
				for i := 0; i < cfg.OpsPer; i++ {
					pickDistinct(rng, cfg.ArrayWords, idx)
					d, err := h.AllocateDescriptor(0)
					if err != nil {
						deadline := time.Now().Add(allocRetryWindow)
						for err != nil && time.Now().Before(deadline) {
							pool.ReclaimPause()
							d, err = h.AllocateDescriptor(0)
						}
					}
					if err != nil {
						continue
					}
					okBuild := true
					for _, w := range idx {
						a := addrAt(w)
						v := h.Read(a)
						if d.AddWord(a, v, v+1) != nil {
							okBuild = false
							break
						}
					}
					if !okBuild {
						d.Discard()
						continue
					}
					last = ov.await(last)
					if ok, _ := d.Execute(); ok {
						succ[t]++
					}
				}
			}(t)
		}
		wg.Wait()
		res.Elapsed = time.Since(start)
		s := pool.Stats()
		res.HelpsPer = float64(s.Helps) / float64(cfg.Threads*cfg.OpsPer)

	case VariantHTM:
		tm := htm.New(dev, cfg.HTM)
		start := time.Now()
		for t := 0; t < cfg.Threads; t++ {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				defer ov.live.Add(-1)
				h := tm.NewHandle(int64(t)*6151 + 3)
				rng := rand.New(rand.NewSource(int64(t)*12289 + 5))
				idx := make([]int, cfg.WordsPerOp)
				addrs := make([]nvram.Offset, cfg.WordsPerOp)
				olds := make([]uint64, cfg.WordsPerOp)
				news := make([]uint64, cfg.WordsPerOp)
				var last uint64
				for i := 0; i < cfg.OpsPer; i++ {
					pickDistinct(rng, cfg.ArrayWords, idx)
					for j, w := range idx {
						addrs[j] = addrAt(w)
						olds[j] = h.Read(addrs[j])
						news[j] = olds[j] + 1
					}
					last = ov.await(last)
					if h.MwCAS(addrs, olds, news) {
						succ[t]++
					}
				}
			}(t)
		}
		wg.Wait()
		res.Elapsed = time.Since(start)
		res.HTMStats = tm.Stats()

	default:
		return MicroResult{}, fmt.Errorf("harness: unknown variant %q", cfg.Variant)
	}

	res.Attempts = cfg.Threads * cfg.OpsPer
	for _, s := range succ {
		res.Succeeded += s
	}
	res.SuccessRate = float64(res.Succeeded) / float64(res.Attempts)
	res.OpsPerSec = float64(res.Succeeded) / res.Elapsed.Seconds()
	res.FlushesPer = float64(dev.Stats().Flushes-flushes0) / float64(res.Attempts)
	return res, nil
}

// overlap holds an attempt's CAS, when no other thread has read since
// the same thread's previous attempt, until one has. On a busy host that
// runs every thread on one core, a short cell would otherwise run each
// thread's share back to back and report no conflict at any contention;
// where threads interleave anyway, no attempt waits. The first attempt
// waits for a second thread, so the threads also start together.
type overlap struct {
	reads atomic.Uint64 // attempts past their reads, all threads
	live  atomic.Int32  // threads with attempts left
}

// await is called between an attempt's reads and its CAS. last is what
// await returned to the thread's previous attempt (0 before the first).
func (o *overlap) await(last uint64) uint64 {
	mine := o.reads.Add(1)
	for mine == last+1 && o.reads.Load() == mine && o.live.Load() > 1 {
		runtime.Gosched()
	}
	return mine
}

// pickDistinct fills idx with distinct values in [0, n).
func pickDistinct(rng *rand.Rand, n int, idx []int) {
	for i := range idx {
	retry:
		v := rng.Intn(n)
		for j := 0; j < i; j++ {
			if idx[j] == v {
				goto retry
			}
		}
		idx[i] = v
	}
}

// RecoveryBench measures single-threaded recovery time as a function of
// in-flight operations at the crash (experiment E7).
type RecoveryBench struct {
	PoolSize int
	InFlight int // descriptors mid-operation when the crash hits
	Words    int // words per descriptor
}

// RecoveryResult reports one recovery measurement.
type RecoveryResult struct {
	PoolSize  int
	InFlight  int
	Elapsed   time.Duration
	Repaired  int
	PerDesc   time.Duration // elapsed / pool size (scan cost dominates)
	CorrectOK bool
}

// RunRecovery builds a pool, freezes InFlight operations mid-Phase-1 (by
// crashing the device while their descriptor pointers are installed),
// then measures a full recovery pass.
func RunRecovery(cfg RecoveryBench) (RecoveryResult, error) {
	if cfg.Words == 0 {
		cfg.Words = 4
	}
	if cfg.InFlight > cfg.PoolSize {
		return RecoveryResult{}, fmt.Errorf("harness: in-flight %d > pool %d", cfg.InFlight, cfg.PoolSize)
	}
	poolBytes := core.PoolSize(cfg.PoolSize, cfg.Words)
	words := cfg.InFlight*cfg.Words + 8
	dev := nvram.New(poolBytes + uint64(words)*nvram.WordSize + 1<<12)
	layout := nvram.NewLayout(dev)
	poolReg := layout.Carve(poolBytes)
	arrReg := layout.Carve(uint64(words) * nvram.WordSize)
	dev.FlushAll()

	pool, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg,
		DescriptorCount: cfg.PoolSize, WordsPerDescriptor: cfg.Words,
		Mode: core.Persistent,
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	h := pool.NewHandle()

	// Freeze InFlight operations mid-flight: run each under a failpoint
	// that cuts the power during Phase 2, leaving descriptor pointers in
	// some target words and a mix of Undecided/Succeeded descriptors.
	for i := 0; i < cfg.InFlight; i++ {
		base := arrReg.Base + nvram.Offset(i*cfg.Words)*nvram.WordSize
		d, err := h.AllocateDescriptor(0)
		if err != nil {
			return RecoveryResult{}, err
		}
		for w := 0; w < cfg.Words; w++ {
			if err := d.AddWord(base+nvram.Offset(w)*nvram.WordSize, 0, uint64(i+1)); err != nil {
				return RecoveryResult{}, err
			}
		}
		stopAt := 6 + i%10 // vary the interruption point across descriptors
		step := 0
		func() {
			defer func() { recover() }()
			dev.SetHook(func(op string, off nvram.Offset) {
				step++
				if step == stopAt {
					panic("cut")
				}
			})
			defer dev.SetHook(nil)
			d.Execute()
		}()
		dev.SetHook(nil)
	}

	dev.Crash()
	pool2, err := core.NewPool(core.Config{
		Device: dev, Region: poolReg,
		DescriptorCount: cfg.PoolSize, WordsPerDescriptor: cfg.Words,
		Mode: core.Persistent,
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	start := time.Now()
	st, err := pool2.Recover()
	elapsed := time.Since(start)
	if err != nil {
		return RecoveryResult{}, err
	}

	// Verify all-or-nothing on every frozen operation.
	ok := true
	h2 := pool2.NewHandle()
	for i := 0; i < cfg.InFlight; i++ {
		base := arrReg.Base + nvram.Offset(i*cfg.Words)*nvram.WordSize
		first := h2.Read(base)
		for w := 1; w < cfg.Words; w++ {
			//lint:allow guardfact — post-recovery verification is single-threaded; nothing reclaims while it runs (§4.4)
			if h2.Read(base+nvram.Offset(w)*nvram.WordSize) != first {
				ok = false
			}
		}
	}
	return RecoveryResult{
		PoolSize:  cfg.PoolSize,
		InFlight:  cfg.InFlight,
		Elapsed:   elapsed,
		Repaired:  st.RolledForward + st.RolledBack + st.Reclaimed,
		PerDesc:   elapsed / time.Duration(cfg.PoolSize),
		CorrectOK: ok,
	}, nil
}
