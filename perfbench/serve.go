package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/serve"
	"repro/internal/simulate"
)

const (
	// serveClients is the closed loop's client count: each client submits
	// its next job only once the previous one's result is in.
	serveClients = 2
	// serveWorkers is ppserved's job runner count.
	serveWorkers = 2
	// pollEvery is the resolution of the status wait.
	pollEvery = time.Millisecond
	// coldM is the population of cold jobs, above every generated
	// program's pointer count.
	coldM = 16
	// serveCache is ppserved's compiled-protocol cache size: small enough
	// that cold programs fill it within a few passes, so the memory a pass
	// holds does not keep growing with the number of jobs served.
	serveCache = 8
	// seedPool is the number of distinct seeds simulate jobs draw from.
	// Jobs repeat seeds, so settle computes each expected result once; the
	// pool is large enough that its draw barely moves a run's average.
	seedPool = 16
)

// blockMix is one pass of the serve workload: the number of jobs of each
// class, submitted in a seeded order.
var blockMix = map[string]int{"warm": 16, "explore": 3, "cold": 1}

// counterSource is the warm inline program: it drains a into b, then
// accepts.
const counterSource = `program counter
registers a, b

proc Main {
  while detect a {
    move a -> b
  }
  of true
}
`

// jobTemplate is a job kind the workload submits, with the library call
// that gives its expected result.
type jobTemplate struct {
	spec serve.JobSpec
	// want is the expected output of every run or stable outcome, from the
	// predicate the target decides.
	want bool
}

// serveBench drives ppserved through httptest with a state directory.
type serveBench struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client

	warm    []jobTemplate
	explore []jobTemplate
	seeds   []int64
	genSeed int64
	// coldSeq numbers the cold programs; pass builds them all before its
	// clients start.
	coldSeq int

	mu sync.Mutex
	// results holds every job's result until settle checks it.
	results []jobResult

	// Traced-phase accumulators.
	stats serveStats
}

// jobResult is a finished job: its spec, the output its runs must give
// and the result fields the server returned.
type jobResult struct {
	spec serve.JobSpec
	want bool
	got  string
}

// serveStats collects client-side timings of the traced phase.
type serveStats struct {
	mu                        sync.Mutex
	submit, queue, run, fetch []float64 // milliseconds
	polls, rejected           int
}

func setupServe(seed int64) (bench, error) {
	parent := filepath.Join(".bench_build", "serve")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: serveWorkers, CacheSize: serveCache, StateDir: dir})
	if err != nil {
		return nil, err
	}
	b := &serveBench{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler()), genSeed: seed}
	b.client = b.ts.Client()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < seedPool; i++ {
		b.seeds = append(b.seeds, 1+rng.Int63n(1<<30))
	}
	b.warm = []jobTemplate{
		{serve.JobSpec{Kind: serve.KindSimulate, Target: "majority", Input: []int64{600, 400}, Runs: 4},
			baseline.MajorityPredicate([]int64{600, 400})},
		{serve.JobSpec{Kind: serve.KindSimulate, Target: "majority", Input: []int64{60000, 40000}, Runs: 2,
			Kernel: simulate.KernelBatch}, baseline.MajorityPredicate([]int64{60000, 40000})},
		{programJob(counterSource, 9, 4), true},
	}
	b.explore = []jobTemplate{
		{serve.JobSpec{Kind: serve.KindExplore, Target: "majority", Input: []int64{12, 9}},
			baseline.MajorityPredicate([]int64{12, 9})},
	}
	// Warm the cache with every program target.
	for _, t := range append(b.warm, b.explore...) {
		if _, err := b.do(nil, 0, t.spec); err != nil {
			b.close()
			return nil, fmt.Errorf("warming %s: %w", t.spec.Target+t.spec.Program, err)
		}
	}
	return b, nil
}

// programRunBudget bounds a program job's runs. The stable window is as
// long, so runs end on quiescence: the window heuristic stops converted
// programs on their initial false opinion.
const programRunBudget = 10_000_000

// programJob is a simulate job on inline program source. Program targets
// accept when the population holds at least the |F| pointer agents.
func programJob(src string, m int64, runs int) serve.JobSpec {
	return serve.JobSpec{Kind: serve.KindSimulate, Program: src, Input: []int64{m}, Runs: runs,
		MaxSteps: programRunBudget, StableWindow: programRunBudget}
}

// coldRegisters is the register count of generated cold programs. It is
// fixed so every cold job costs the same conversion.
const coldRegisters = 3

// coldProgram generates a fresh program that no earlier job used: its name
// carries the run seed and a sequence number, and it drains the registers
// in a seeded order, then accepts. Its canonical hash is new, so the job
// misses the cache and converts on the request path.
func (b *serveBench) coldProgram(rng *rand.Rand) string {
	b.coldSeq++
	regs := make([]string, coldRegisters)
	for i := range regs {
		regs[i] = fmt.Sprintf("r%d", i)
	}
	order := rng.Perm(coldRegisters)
	var sb strings.Builder
	fmt.Fprintf(&sb, "program cold_%x_%d\nregisters %s\n\nproc Main {\n", uint64(b.genSeed), b.coldSeq, strings.Join(regs, ", "))
	for i := 0; i+1 < coldRegisters; i++ {
		from, to := regs[order[i]], regs[order[i+1]]
		fmt.Fprintf(&sb, "  while detect %s {\n    move %s -> %s\n  }\n", from, from, to)
	}
	sb.WriteString("  of true\n}\n")
	return sb.String()
}

func specKey(spec serve.JobSpec) string {
	data, _ := json.Marshal(spec) // JobSpec is plain data
	return string(data)
}

// libraryResult computes the result fields a job must report by calling
// the library directly: the conversion for programs, then either
// MeasureConvergenceWithSamples or the explorer. It fails when a run gives
// another output than want.
func libraryResult(spec serve.JobSpec, want bool) (string, error) {
	var p *protocol.Protocol
	switch {
	case spec.Program != "":
		prog, err := popprog.Parse(spec.Program)
		if err != nil {
			return "", err
		}
		m, err := compile.Compile(prog)
		if err != nil {
			return "", err
		}
		var r *convert.Result
		if spec.Optimize {
			r, _, err = convert.Optimize(m)
		} else {
			r, err = convert.Convert(m)
		}
		if err != nil {
			return "", err
		}
		p = r.Protocol
	case spec.Target == "majority":
		var err error
		if p, err = baseline.Majority(); err != nil {
			return "", err
		}
	default:
		return "", fmt.Errorf("no library call for target %q", spec.Target)
	}
	if spec.Kind == serve.KindExplore {
		init, err := p.InitialConfig(spec.Input...)
		if err != nil {
			return "", err
		}
		res, err := explore.ExploreParallel(explore.NewProtocolSystem(p), []*multiset.Multiset{init},
			explore.Options{Workers: exploreWorkers})
		if err != nil {
			return "", err
		}
		if !res.StabilisesTo(want) {
			return "", fmt.Errorf("explore %v: outcomes %v, want all %v", spec.Input, res.Outcomes, want)
		}
		outcomes := make([]string, len(res.Outcomes))
		for i, o := range res.Outcomes {
			outcomes[i] = fmt.Sprint(o)
		}
		return mustMarshal(exploreFields{res.NumStates, res.NumBottomSCCs, outcomes}), nil
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	runs := max(spec.Runs, 1)
	stats, samples, err := simulate.MeasureConvergenceWithSamples(p, spec.Input, want, runs, seed,
		simulate.Options{MaxSteps: spec.MaxSteps, StableWindow: spec.StableWindow,
			QuiescencePeriod: spec.QuiescencePeriod, BatchSize: spec.Batch, Kernel: spec.Kernel,
			FluidFloor: spec.FluidFloor, Workers: spec.Workers})
	if err != nil {
		return "", err
	}
	if stats.WrongOutputs != 0 {
		return "", fmt.Errorf("simulate %v: %d of %d runs gave another output than %v",
			spec.Input, stats.WrongOutputs, runs, want)
	}
	return mustMarshal(simulateFields{stats, samples}), nil
}

// simulateFields and exploreFields are the parts of ppserved's result
// documents that the library call must reproduce.
type simulateFields struct {
	Stats   *simulate.ConvergenceStats `json:"stats"`
	Samples []float64                  `json:"samples"`
}

type exploreFields struct {
	NumStates     int      `json:"num_states"`
	NumBottomSCCs int      `json:"num_bottom_sccs"`
	Outcomes      []string `json:"outcomes"`
}

func mustMarshal(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs; cannot fail
	}
	return string(data)
}

// resultFields re-encodes a result document to the fields of its kind.
func resultFields(kind string, result json.RawMessage) (string, error) {
	var v any = &simulateFields{}
	if kind == serve.KindExplore {
		v = &exploreFields{}
	}
	if err := json.Unmarshal(result, v); err != nil {
		return "", err
	}
	return mustMarshal(v), nil
}

func (b *serveBench) pass(p *pass) {
	rng := rand.New(rand.NewSource(p.seed))
	type job struct {
		class string
		spec  serve.JobSpec
		want  bool
	}
	var jobs []job
	for _, class := range []string{"warm", "explore", "cold"} {
		for i := 0; i < blockMix[class]; i++ {
			// Templates take turns, so every block has the same mix.
			var t jobTemplate
			switch class {
			case "warm":
				t = b.warm[i%len(b.warm)]
				t.spec.Seed = b.seeds[rng.Intn(len(b.seeds))]
			case "explore":
				t = b.explore[i%len(b.explore)]
			case "cold":
				t = jobTemplate{programJob(b.coldProgram(rng), coldM, 2), true}
				t.spec.Seed = b.seeds[rng.Intn(len(b.seeds))]
			}
			jobs = append(jobs, job{class, t.spec, t.want})
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	next := make(chan job)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				p.task(j.class, func(sp int) error { return b.job(p.tr, sp, j.spec, j.want) })
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}

// job submits spec, waits for a terminal status and fetches the result,
// which settle checks once the window is over.
func (b *serveBench) job(tr *tracer, sp int, spec serve.JobSpec, want bool) error {
	res, err := b.do(tr, sp, spec)
	if err != nil {
		return err
	}
	got, err := resultFields(spec.Kind, res)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.results = append(b.results, jobResult{spec, want, got})
	b.mu.Unlock()
	return nil
}

// errRejected marks a submission the server refused with 429.
var errRejected = errors.New("job queue full (429)")

// do runs one job through the HTTP API and returns its result document.
func (b *serveBench) do(tr *tracer, sp int, spec serve.JobSpec) (json.RawMessage, error) {
	t0 := time.Now()
	body, _ := json.Marshal(spec) // JobSpec is plain data
	var j serve.Job
	code, err := b.request(tr, sp, "serve.submit", http.MethodPost, "/api/v1/jobs", body, &j)
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	if code == http.StatusTooManyRequests {
		if tr != nil {
			b.stats.mu.Lock()
			b.stats.rejected++
			b.stats.mu.Unlock()
		}
		return nil, errRejected
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("submit: HTTP %d", code)
	}
	polls := 0
	for j.Status == serve.StatusQueued || j.Status == serve.StatusRunning {
		time.Sleep(pollEvery)
		polls++
		if code, err = b.request(tr, sp, "serve.poll", http.MethodGet, "/api/v1/jobs/"+j.ID, nil, &j); err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("status: HTTP %d", code)
		}
	}
	fetchStart := time.Now()
	var done serve.Job
	if code, err = b.request(tr, sp, "serve.fetch", http.MethodGet, "/api/v1/jobs/"+j.ID+"/result", nil, &done); err != nil {
		return nil, err
	}
	fetched := time.Now()
	if code != http.StatusOK || done.Status != serve.StatusDone {
		return nil, fmt.Errorf("job %s: HTTP %d, status %s: %s", j.ID, code, done.Status, done.Error)
	}
	if tr != nil && done.Started != nil && done.Finished != nil {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		st := &b.stats
		st.mu.Lock()
		st.polls += polls
		st.submit = append(st.submit, ms(submitted.Sub(t0)))
		st.queue = append(st.queue, ms(done.Started.Sub(done.Created)))
		st.run = append(st.run, ms(done.Finished.Sub(*done.Started)))
		st.fetch = append(st.fetch, ms(fetched.Sub(fetchStart)))
		st.mu.Unlock()
	}
	return done.Result, nil
}

// request sends one HTTP request inside a span and decodes the JSON reply
// into out when the status is 2xx.
func (b *serveBench) request(tr *tracer, sp int, name, method, path string, body []byte, out any) (int, error) {
	return call(tr, sp, name, func() (int, error) {
		req, err := http.NewRequest(method, b.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp, err := b.client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode/100 == 2 {
			if err := json.Unmarshal(data, out); err != nil {
				return 0, fmt.Errorf("%s %s: %w", method, path, err)
			}
		}
		return resp.StatusCode, nil
	})
}

// settle checks every job against the library call at the same seed,
// computing each distinct spec's expected result once.
func (b *serveBench) settle(rec *recorder) {
	b.mu.Lock()
	results := b.results
	b.results = nil
	b.mu.Unlock()
	type expected struct {
		fields string
		err    error
	}
	memo := map[string]expected{}
	for _, r := range results {
		key := specKey(r.spec)
		e, ok := memo[key]
		if !ok {
			e.fields, e.err = libraryResult(r.spec, r.want)
			memo[key] = e
		}
		err := e.err
		if err == nil && r.got != e.fields {
			err = fmt.Errorf("%s job: result %s, library call gives %s", r.spec.Kind, r.got, e.fields)
		}
		if err != nil {
			rec.fail(r.spec.Kind, err)
		}
	}
}

func (b *serveBench) layers(passes int) map[string]float64 {
	st := &b.stats
	n := float64(passes)
	return map[string]float64{
		"serve.submit_ms.p50": median(st.submit),
		"serve.queue_ms.p50":  median(st.queue),
		"serve.run_ms.p50":    median(st.run),
		"serve.fetch_ms.p50":  median(st.fetch),
		"serve.polls_per_job": float64(st.polls) / float64(len(st.submit)),
		"serve.rejected":      float64(st.rejected) / n,
	}
}

func (b *serveBench) close() {
	b.ts.Close()
	b.srv.Close()
	os.RemoveAll(b.dir)
}
