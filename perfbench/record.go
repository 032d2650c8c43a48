package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pass is one pass over a workload's classes.
type pass struct {
	// seed is this pass's share of the run seed: tasks derive their
	// inputs and PRNG seeds from it.
	seed int64
	// tr is nil outside the traced phase.
	tr  *tracer
	rec *recorder
	// collect makes every task start from a freshly collected heap, so one
	// task's garbage is not collected on the next one's time. Concurrent
	// workloads collect once per pass instead.
	collect bool
}

// task runs fn as one task of class: a root span, a latency sample and,
// when fn reports an error, a failure. fn receives its root span.
func (p *pass) task(class string, fn func(span int) error) {
	if p.collect {
		runtime.GC()
	}
	sp := p.tr.start("task."+class, 0)
	t0 := time.Now()
	err := fn(sp)
	d := time.Since(t0)
	p.tr.end(sp)
	p.rec.add(class, d, err)
}

// recorder collects the task samples of one phase. It is safe for
// concurrent use by the serve workload's clients.
type recorder struct {
	mu        sync.Mutex
	samples   map[string][]float64 // task latency in seconds, by class
	passTimes []float64            // pass wall time in seconds
	passCPU   []float64            // process CPU time per pass in seconds
	passRSS   []float64            // peak resident memory per pass in MB
	attempted int
	failed    int
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

// maxReported bounds the failures printed to standard error per phase.
const maxReported = 10

func (r *recorder) add(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.samples[class] = append(r.samples[class], d.Seconds())
	if err != nil {
		r.noteFailure(class, err)
	}
}

// noteFailure counts a failure; r.mu must be held.
func (r *recorder) noteFailure(class string, err error) {
	r.failed++
	if r.failed <= maxReported {
		fmt.Fprintf(os.Stderr, "perfbench: %s task failed: %v\n", class, err)
	}
}

// typicalPass is the median pass time so far.
func (r *recorder) typicalPass() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.passTimes) == 0 {
		return 0
	}
	return time.Duration(median(r.passTimes) * float64(time.Second))
}

// fail records a failure found after the task's sample was taken.
func (r *recorder) fail(class string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.noteFailure(class, err)
}

// result returns the phase's outcome counts.
func (r *recorder) result() *result {
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
}

func (r *recorder) endPass(d time.Duration, cpu, rssMB float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passCPU = append(r.passCPU, cpu)
	r.passRSS = append(r.passRSS, rssMB)
	r.passTimes = append(r.passTimes, d.Seconds())
}

// describe prints the phase's sample counts and spreads, for diagnosis.
func (r *recorder) describe(w io.Writer) {
	fmt.Fprintf(w, "perfbench: %d passes, wall %s, cpu %s, rss %s\n", len(r.passTimes),
		spread(r.passTimes), spread(r.passCPU), spread(r.passRSS))
	classes := make([]string, 0, len(r.samples))
	for c := range r.samples {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		xs := r.samples[c]
		fmt.Fprintf(w, "perfbench:   %s: %d tasks, %s\n", c, len(xs), spread(xs))
	}
}

// spread formats the median and range of xs.
func spread(xs []float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), quantile(xs, 0), quantile(xs, 1))
}

// classMedian is the median task latency of class, in seconds.
func (r *recorder) classMedian(class string) float64 { return median(r.samples[class]) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// residentBytes reads the process's resident set size.
func residentBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// memSampler samples the resident set size and the live heap. The RSS
// peak restarts at every pass (see resetRSS), so a pass's peak is its own;
// the heap peak covers the whole run.
type memSampler struct {
	stopc    chan struct{}
	done     chan struct{}
	rssPeak  atomic.Uint64
	heapPeak uint64 // owned by the sampler goroutine until done
}

const heapMetric = "/memory/classes/heap/objects:bytes"

// memSamplePeriod is the sampling period: short against the tasks, long
// enough that sampling costs nothing measurable.
const memSamplePeriod = 5 * time.Millisecond

func startMemSampler() *memSampler {
	m := &memSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(memSamplePeriod)
		defer tick.Stop()
		for {
			m.sample()
			metrics.Read(s)
			m.heapPeak = max(m.heapPeak, s[0].Value.Uint64())
			select {
			case <-m.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	rss := residentBytes()
	for {
		cur := m.rssPeak.Load()
		if rss <= cur || m.rssPeak.CompareAndSwap(cur, rss) {
			return
		}
	}
}

// resetRSS returns freed memory to the operating system and restarts the
// RSS peak from the current resident size.
func (m *memSampler) resetRSS() {
	debug.FreeOSMemory()
	m.rssPeak.Store(0)
	m.sample()
}

// rssPeakMB is the RSS peak since the last resetRSS.
func (m *memSampler) rssPeakMB() float64 {
	m.sample()
	return float64(m.rssPeak.Load()) / (1 << 20)
}

// stop ends sampling and waits for the sampler.
func (m *memSampler) stop() {
	select {
	case <-m.done:
	default:
		close(m.stopc)
		<-m.done
	}
}

// heapPeakMB stops the sampler and returns the run's live-heap peak.
func (m *memSampler) heapPeakMB() float64 {
	m.stop()
	return float64(m.heapPeak) / (1 << 20)
}

// runtimeStats is a point-in-time read of the Go runtime counters.
type runtimeStats struct {
	gcCycles   uint64
	pauseNanos uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{gcCycles: s[0].Value.Uint64(), pauseNanos: ms.PauseTotalNs}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// allocStats reads the cumulative heap allocation counters.
func allocStats() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
