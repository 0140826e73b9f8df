package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// epoch anchors nanotime; time.Since reads the monotonic clock.
var epoch = time.Now()

// nanotime is a monotonic timestamp in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is what the process had spent when the timed window opened or
// closed.
type mark struct {
	cpu    time.Duration
	bytes  uint64 // cumulative heap bytes allocated
	allocs uint64 // cumulative heap objects allocated
	layers counters
}

// probe times one run from outside the program: set-up ends at the first
// dispatch, every update is stamped, and the process's CPU time and heap
// allocation are read where the timed window opens (after the warm-up)
// and closes (at the last update of the budget). update is called by one
// goroutine at a time (the engine's fold callbacks, which the clock
// serialises); dispatched may be called from several.
type probe struct {
	budget, warmup int
	tr             *tracer // nil on an untraced run

	start      int64 // nanotime when workload construction began
	setupOnce  sync.Once
	setupNs    atomic.Int64
	dispatched atomic.Int64 // client updates handed to a fabric
	delivered  atomic.Int64 // ... whose result reached the server

	ticks    []int64
	heapPeak uint64
	live     []metrics.Sample
	open     mark
	close    mark
}

func newProbe(budget, warmup int, tr *tracer) *probe {
	return &probe{
		budget: budget, warmup: warmup, tr: tr,
		start: nanotime(),
		ticks: make([]int64, 0, budget),
		live:  []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
}

// dispatch records a cohort handed to a fabric; the first one ends set-up.
func (p *probe) dispatch(clients int) {
	p.setupOnce.Do(func() { p.setupNs.Store(nanotime() - p.start) })
	p.dispatched.Add(int64(clients))
}

// setup is the wall time from construction start to the first dispatch.
func (p *probe) setup() time.Duration { return time.Duration(p.setupNs.Load()) }

// update stamps one global update.
func (p *probe) update() {
	p.ticks = append(p.ticks, nanotime())
	switch len(p.ticks) {
	case p.warmup:
		// Every run's window opens on a freshly collected heap, so runs
		// start it in the same GC state; the collection itself is kept
		// out of the window by restamping its first tick.
		runtime.GC()
		p.open = p.snapshot()
		p.ticks[p.warmup-1] = nanotime()
	case p.budget:
		p.close = p.snapshot()
	}
	metrics.Read(p.live)
	if v := p.live[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > p.heapPeak {
		p.heapPeak = v.Uint64()
	}
}

func (p *probe) snapshot() mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := mark{cpu: cpuTime(), bytes: ms.TotalAlloc, allocs: ms.Mallocs}
	if p.tr != nil {
		s.layers = p.tr.snapshot()
	}
	return s
}

// calibrate times a fixed private loop that no program change can move;
// printed beside the wall metrics, it shows how fast the host ran.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	f := 1.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f = f*0.999999 + float64(x>>40)*1e-12
	}
	calibSink = f
	return time.Since(t0)
}

// calibSink keeps the calibration loop's result live.
var calibSink float64
