// Command perfbench is the repository's benchmark. It drives the pipeline's
// public functions from one process on one seeded workload and prints one
// JSON result line:
//
//	perfbench --workload construct|verify|simulate|serve --seed N --seconds S --trace 0|1
//
// A run sets the workload up several times (the median of their process
// CPU times is setup_s), then runs passes over the workload's task classes
// until the window elapses.
// Every task checks its output against an answer the layer under test does
// not produce; a mismatch counts as failed.
//
// With --trace 0 the result holds the end-to-end metrics of BENCHMARK.json:
// set-up CPU time, the median over passes of the process CPU time of one pass,
// and the peak resident memory of the run's passes. The memory peak is the
// highest pass peak, not their median: whether a pass peaks before or after
// a collection splits pass peaks into two modes ~15% apart, and the median
// of a run's passes lands in either. Pass times are CPU time because the
// wall time of a small shared virtual machine drifts with its neighbours'
// load by more than any bound worth setting; the wall-clock class times
// are per-layer metrics. With --trace 1 the first half of the window runs
// untraced and gives the class metrics, the second half runs with spans
// and the obs counters on and gives the per-layer metrics, and
// trace.overhead_frac compares the CPU time per pass of the two halves.
// Spans are written to .bench_build/traces/ when the run ends.
//
// Run it through perfbench/run.sh from the repository root, which builds
// this package with all Go caches inside .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/obs"
)

// bench is one workload after set-up.
type bench interface {
	// pass runs every class of the workload once, recording each task's
	// latency and outcome in p.
	pass(p *pass)
	// layers returns the workload's own per-layer metrics of the traced
	// phase, normalised per pass.
	layers(passes int) map[string]float64
	// settle checks the outputs whose expected answer is computed after
	// the window, recording failures in rec.
	settle(rec *recorder)
	// close releases the workload's resources.
	close()
}

// workload describes one workload and its set-up.
type workload struct {
	name string
	set  workloadSet
	// concurrent workloads run tasks from several goroutines at once.
	concurrent bool
	// setup builds a bench from the seed. Everything it does counts as
	// set-up time; it runs several times and only the last bench is kept.
	setup func(seed int64) (bench, error)
}

var workloads = map[string]workload{
	"construct": {"construct", onConstruct, false, setupConstruct},
	"verify":    {"verify", onVerify, false, setupVerify},
	"simulate":  {"simulate", onSimulate, false, setupSimulate},
	"serve":     {"serve", onServe, true, setupServe},
}

const (
	// minPasses is the fewest passes a phase runs, however long they take,
	// so every class median has samples.
	minPasses = 3
	// minSetups and setupFloor: set up at least minSetups times and until
	// the set-ups took setupFloor in total (at most maxSetups), so setup_s
	// is a median of enough samples even when one set-up is quick.
	minSetups  = 3
	maxSetups  = 1000
	setupFloor = 500 * time.Millisecond
)

func main() {
	wl := flag.String("workload", "", "workload: construct | verify | simulate | serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloads[*wl]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload construct|verify|simulate|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	res, values, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatal(err)
	}
	if res.Metrics, err = spec.metrics(w, *trace == 1, values); err != nil {
		fatal(fmt.Errorf("self-check: %w", err))
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs one benchmark run of workload w and returns the outcome
// counts with the measured metric values.
func run(w workload, seed int64, window time.Duration, traced bool) (*result, map[string]float64, error) {
	mem := startMemSampler()
	defer mem.stop()

	b, setups, err := setUp(w, seed)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	if !traced {
		rec := phase(w, b, rng, window, nil, mem)
		b.close()
		return rec.result(), map[string]float64{
			"setup_s":     median(setups),
			"peak_rss_mb": slices.Max(rec.passRSS),
			"pass_cpu_s":  median(rec.passCPU),
		}, nil
	}

	rec := phase(w, b, rng, window/2, nil, mem)
	b.close()
	values := classMetrics(w, rec)
	// Counters are captured when components are built, so the traced half
	// enables obs first and then sets the workload up afresh.
	met := obs.Enable()
	defer obs.Disable()
	if b, err = w.setup(seed); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	tr := newTracer()
	before, rt0 := met.Snapshot(), readRuntime()
	traceRec := phase(w, b, rng, window/2, tr, mem)
	after, rt1 := met.Snapshot(), readRuntime()
	for name, v := range b.layers(len(traceRec.passTimes)) {
		values[name] = v
	}
	b.close()
	addSpanLayers(values, tr, len(traceRec.passTimes))
	addObsLayers(values, before, after, len(traceRec.passTimes))
	addRuntimeLayers(values, rt0, rt1, len(traceRec.passTimes))
	values["go.heap_peak_mb"] = mem.heapPeakMB()
	values["trace.overhead_frac"] = median(traceRec.passCPU)/median(rec.passCPU) - 1
	if err := tr.write(filepath.Join(".bench_build", "traces",
		fmt.Sprintf("%s-seed%d.json", w.name, seed))); err != nil {
		return nil, nil, err
	}
	res := rec.result()
	res.Attempted += traceRec.attempted
	res.Failed += traceRec.failed
	res.Correct = res.Failed == 0
	return res, values, nil
}

// setUp builds the workload repeatedly and returns the last bench with the
// process CPU time of every set-up in seconds. Set-up is timed in CPU
// seconds, like passes: the serve set-up waits on polled jobs, and its wall
// time drifted with the host's load by up to 70% across runs.
func setUp(w workload, seed int64) (bench, []float64, error) {
	var times []float64
	var total time.Duration
	var b bench
	for len(times) < minSetups || (total < setupFloor && len(times) < maxSetups) {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		var err error
		b, err = w.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, cpuSeconds()-c0)
		total += time.Since(t0)
	}
	return b, times, nil
}

// phase runs passes of b while the next one is expected to end within the
// window, and at least minPasses.
func phase(w workload, b bench, rng *rand.Rand, window time.Duration, tr *tracer, mem *memSampler) *recorder {
	rec := newRecorder()
	deadline := time.Now().Add(window)
	for i := 0; i < minPasses || time.Now().Add(rec.typicalPass()).Before(deadline); i++ {
		p := &pass{seed: rng.Int63(), tr: tr, rec: rec, collect: !w.concurrent}
		mem.resetRSS()
		t0, c0 := time.Now(), cpuSeconds()
		b.pass(p)
		rec.endPass(time.Since(t0), cpuSeconds()-c0, mem.rssPeakMB())
	}
	b.settle(rec)
	rec.describe(os.Stderr)
	return rec
}
