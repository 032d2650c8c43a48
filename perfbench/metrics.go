package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/obs"
)

// workloadSet is a set of workloads, one bit each.
type workloadSet uint8

const (
	onConstruct workloadSet = 1 << iota
	onVerify
	onSimulate
	onServe
	onAll = onConstruct | onVerify | onSimulate | onServe
)

// A metric's applicability is the set of workloads that exercise its
// layer. On those workloads the self-check requires the metric to be
// emitted; on the others it reads whatever the run measured, which is
// usually 0. Metrics marked nonzero must also be non-zero where they apply,
// since a zero there would mean a layer that did not run or a value that
// underflowed.
type applicability struct {
	on      workloadSet
	nonzero bool
}

// endToEnd applies to every workload; none of them may read 0.
var endToEnd = map[string]applicability{
	"setup_s":     {onAll, true},
	"peak_rss_mb": {onAll, true},
	"pass_cpu_s":  {onAll, true},
}

var perLayer = map[string]applicability{
	// Class metrics of the untraced half.
	"count_s":        {onConstruct, true},
	"materialize_s":  {onConstruct, true},
	"wide_s":         {onVerify, true},
	"narrow_s":       {onVerify, true},
	"spill_s":        {onVerify, true},
	"dense_s":        {onSimulate, true},
	"null_s":         {onSimulate, true},
	"fluid_s":        {onSimulate, true},
	"latency_ms.p50": {onServe, true},
	"latency_ms.p90": {onServe, true},
	"cold_ms.p50":    {onServe, true},
	"jobs_per_s":     {onServe, true},

	// Front end.
	"popprog.parse_s":           {onConstruct, true},
	"core.build_s":              {onConstruct, true},
	"compile.compile_s":         {onConstruct, true},
	"convert.count_states_s":    {onConstruct, true},
	"convert.optimize_states_s": {onConstruct, true},
	"convert.convert_s":         {onConstruct, true},
	"convert.optimize_s":        {onConstruct, true},
	"convert.alloc_mb":          {onConstruct, true},
	"convert.transitions":       {onConstruct, true},
	"opt.states_removed":        {onConstruct, true},
	"opt.transitions_removed":   {onConstruct, true},
	"protocol.stepper_build_s":  {onVerify, true},
	"popprog.self_s":            {onConstruct, true},
	"core.self_s":               {onConstruct, true},
	"compile.self_s":            {onConstruct, true},
	"convert.self_s":            {onConstruct, true},
	"protocol.self_s":           {onVerify, true},
	"explore.self_s":            {onVerify, true},
	"simulate.self_s":           {onSimulate, true},
	"serve.self_s":              {onServe, true},

	// Explorer.
	"explore.wide.explore_s":           {onVerify, true},
	"explore.wide.states_per_s":        {onVerify, true},
	"explore.wide.alloc_b_per_state":   {onVerify, true},
	"explore.wide.allocs_per_state":    {onVerify, true},
	"explore.narrow.explore_s":         {onVerify, true},
	"explore.narrow.states_per_s":      {onVerify, true},
	"explore.narrow.alloc_b_per_state": {onVerify, true},
	"explore.narrow.allocs_per_state":  {onVerify, true},
	"explore.spill.explore_s":          {onVerify, true},
	"explore.spill.states_per_s":       {onVerify, true},
	"explore.spill.alloc_b_per_state":  {onVerify, true},
	"explore.spill.allocs_per_state":   {onVerify, true},
	"explore.successors_busy_s":        {onVerify, true},
	"explore.successors_per_state":     {onVerify, true},
	"explore.key_busy_s":               {onVerify, true},
	"explore.levels":                   {onVerify, true},
	"explore.edges":                    {onVerify, true},
	"explore.intern_collisions":        {onVerify, false},
	"explore.spill_bytes":              {onVerify, true},
	"explore.spill_read_bytes":         {onVerify, true},
	"explore.spill_resident_peak_b":    {onVerify, true},

	// Kernels and runner.
	"sched.steps.null":               {onSimulate, true},
	"sched.effective.null":           {onSimulate, true},
	"sched.nulls_skipped.null":       {onSimulate, true},
	"sched.effective_frac.null":      {onSimulate, true},
	"sched.batch_rounds.null":        {onSimulate, false},
	"sched.batch_fallbacks.null":     {onSimulate, true},
	"sched.fallback_frac.null":       {onSimulate, true},
	"sched.batch_rounds.dense":       {onSimulate, true},
	"sched.batch_fallbacks.dense":    {onSimulate, true},
	"sched.fallback_frac.dense":      {onSimulate, true},
	"sched.interactions_per_s.dense": {onSimulate, true},
	"sched.interactions_per_s.null":  {onSimulate, true},
	"simulate.run_s.dense":           {onSimulate, true},
	"simulate.run_s.null":            {onSimulate, true},
	"simulate.run_s.fluid":           {onSimulate, true},
	"simulate.runs":                  {onSimulate, true},
	"simulate.quiescent":             {onSimulate, false},
	"fluid.fluid_chunks":             {onSimulate, true},
	"fluid.discrete_chunks":          {onSimulate, false},
	"fluid.regime_switches":          {onSimulate, false},
	"fluid.rk_steps":                 {onSimulate, true},
	"fluid.rk_steps_per_s":           {onSimulate, true},
	"fluid.rk_reject_frac":           {onSimulate, false},

	// Server, seen from its clients and its counters.
	"serve.submit_ms.p50":  {onServe, true},
	"serve.queue_ms.p50":   {onServe, true},
	"serve.run_ms.p50":     {onServe, true},
	"serve.fetch_ms.p50":   {onServe, true},
	"serve.polls_per_job":  {onServe, true},
	"serve.cache_hit_frac": {onServe, true},
	"serve.conversions":    {onServe, true},
	"serve.convert_ms":     {onServe, true},
	"serve.rejected":       {onServe, false},

	// Go runtime and tracing.
	"go.gc_cycles":        {onAll, false},
	"go.gc_pause_ms":      {onAll, false},
	"go.heap_peak_mb":     {onAll, true},
	"trace.overhead_frac": {onAll, true},
}

// maxExact is 2⁵³: past it float64 no longer holds every integer, and a
// reported value would print as a long integer whose last digits are noise.
const maxExact = 1 << 53

// spec is the metric part of BENCHMARK.json.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metrics turns the run's measured values into the reported metrics: every
// metric BENCHMARK.json names for this mode, with its unit. It is the
// self-check: it fails when the declared metrics and the benchmark's
// tables disagree, when an applicable metric was not measured, or when a
// value is not finite, is too large to print exactly, or reads zero where
// zero means underflow.
func (s *spec) metrics(w workload, traced bool, values map[string]float64) (map[string]metric, error) {
	declared, table := s.EndToEnd, endToEnd
	if traced {
		declared, table = s.PerLayer, perLayer
	}
	if len(declared) != len(table) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d metrics, the benchmark knows %d", len(declared), len(table))
	}
	out := map[string]metric{}
	for _, d := range declared {
		a, ok := table[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared but unknown to the benchmark", d.Name)
		}
		v, measured := values[d.Name]
		applies := a.on&w.set != 0
		switch {
		case applies && !measured:
			return nil, fmt.Errorf("metric %q was not emitted", d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %q is not finite: %v", d.Name, v)
		case math.Abs(v) >= maxExact:
			return nil, fmt.Errorf("metric %q is %v, too large to print with all its digits; scale its unit", d.Name, v)
		case applies && a.nonzero && v == 0:
			return nil, fmt.Errorf("metric %q reads 0", d.Name)
		}
		out[d.Name] = metric{v, d.Unit}
	}
	return out, nil
}

// classMetrics are the per-class figures of an untraced phase.
func classMetrics(w workload, rec *recorder) map[string]float64 {
	switch w.set {
	case onServe:
		var all []float64
		for _, xs := range rec.samples {
			all = append(all, xs...)
		}
		return map[string]float64{
			"latency_ms.p50": 1e3 * quantile(all, 0.5),
			"latency_ms.p90": 1e3 * quantile(all, 0.9),
			"cold_ms.p50":    1e3 * rec.classMedian("cold"),
			"jobs_per_s":     float64(len(all)) / sum(rec.passTimes),
		}
	default:
		out := map[string]float64{}
		for class := range rec.samples {
			out[class+"_s"] = rec.classMedian(class)
		}
		return out
	}
}

// spanMetrics names the span totals reported per pass.
var spanMetrics = map[string]string{
	"popprog.Parse":          "popprog.parse_s",
	"core.New":               "core.build_s",
	"compile.Compile":        "compile.compile_s",
	"convert.CountStates":    "convert.count_states_s",
	"convert.OptimizeStates": "convert.optimize_states_s",
	"convert.Convert":        "convert.convert_s",
	"convert.Optimize":       "convert.optimize_s",
	"protocol.stepper_build": "protocol.stepper_build_s",
}

// addSpanLayers adds span totals and per-layer self times, per pass.
func addSpanLayers(out map[string]float64, tr *tracer, passes int) {
	tot := tr.totals()
	n := float64(passes)
	for span, name := range spanMetrics {
		if d, ok := tot.byName[span]; ok {
			out[name] = d.Seconds() / n
		}
	}
	for key, d := range tot.byClass {
		if key[1] == "simulate.Run" {
			out["simulate.run_s."+key[0]] = d.Seconds() / n
		}
	}
	for layer, d := range tot.self {
		if layer != "task" {
			out[layer+".self_s"] = d.Seconds() / n
		}
	}
}

// addObsLayers adds the obs counter deltas of the traced phase, per pass.
func addObsLayers(out map[string]float64, before, after obs.Snap, passes int) {
	n := float64(passes)
	per := func(a, b int64) float64 { return float64(b-a) / n }
	frac := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	b, a := before, after
	out["opt.states_removed"] = per(b.Opt.StatesRemoved, a.Opt.StatesRemoved)
	out["opt.transitions_removed"] = per(b.Opt.TransitionsRemoved, a.Opt.TransitionsRemoved)

	out["explore.levels"] = per(b.Explore.Levels, a.Explore.Levels)
	out["explore.edges"] = per(b.Explore.Edges, a.Explore.Edges)
	out["explore.intern_collisions"] = per(b.Explore.InternCollisions, a.Explore.InternCollisions)
	out["explore.spill_bytes"] = per(b.Explore.SpillBytes, a.Explore.SpillBytes)
	out["explore.spill_read_bytes"] = per(b.Explore.SpillReadBytes, a.Explore.SpillReadBytes)
	// The resident peak is a high-water mark, not a counter.
	out["explore.spill_resident_peak_b"] = float64(a.Explore.SpillResidentPeak)

	out["simulate.runs"] = per(b.Sim.RunsFinished, a.Sim.RunsFinished)
	out["simulate.quiescent"] = per(b.Sim.Quiescent, a.Sim.Quiescent)
	out["fluid.fluid_chunks"] = per(b.Sched.FluidChunks, a.Sched.FluidChunks)
	out["fluid.discrete_chunks"] = per(b.Sched.DiscreteChunks, a.Sched.DiscreteChunks)
	out["fluid.regime_switches"] = per(b.Sched.RegimeSwitches, a.Sched.RegimeSwitches)
	rk := a.Sched.FluidRKSteps - b.Sched.FluidRKSteps
	out["fluid.rk_steps"] = float64(rk) / n
	out["fluid.rk_reject_frac"] = frac(a.Sched.FluidRKRejects-b.Sched.FluidRKRejects, rk)

	hits := a.Serve.CacheHits - b.Serve.CacheHits
	misses := a.Serve.CacheMisses - b.Serve.CacheMisses
	conv := a.Serve.Conversions - b.Serve.Conversions
	out["serve.cache_hit_frac"] = frac(hits, hits+misses)
	out["serve.conversions"] = float64(conv) / n
	out["serve.convert_ms"] = frac(a.Serve.ConvertNanos-b.Serve.ConvertNanos, conv) / 1e6
}

// addRuntimeLayers adds the Go runtime counters of the traced phase.
func addRuntimeLayers(out map[string]float64, before, after runtimeStats, passes int) {
	n := float64(passes)
	out["go.gc_cycles"] = float64(after.gcCycles-before.gcCycles) / n
	out["go.gc_pause_ms"] = float64(after.pauseNanos-before.pauseNanos) / 1e6 / n
}
