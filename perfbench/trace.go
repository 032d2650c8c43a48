package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Spans of one task share Task, the id of the
// task's root span; Parent is the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Task   int    `json:"task"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced phases pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span named "<layer>.<call>" under parent (0 for a root) and
// returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	task := id
	if parent > 0 {
		task = t.spans[parent-1].Task
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Task: task, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call runs f inside a span.
func call[T any](t *tracer, parent int, name string, f func() (T, error)) (T, error) {
	sp := t.start(name, parent)
	defer t.end(sp)
	return f()
}

// write stores the spans as JSON under path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanTotals aggregates closed spans.
type spanTotals struct {
	// byName is the summed duration per span name.
	byName map[string]time.Duration
	// byClass is the summed duration per task class and span name.
	byClass map[[2]string]time.Duration
	// self is the summed self time per layer: each span's duration minus
	// the part of it that its children cover.
	self map[string]time.Duration
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

func (t *tracer) totals() spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	tot := spanTotals{
		byName:  map[string]time.Duration{},
		byClass: map[[2]string]time.Duration{},
		self:    map[string]time.Duration{},
	}
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		d := time.Duration(s.End - s.Start)
		class := strings.TrimPrefix(t.spans[s.Task-1].Name, "task.")
		tot.byName[s.Name] += d
		tot.byClass[[2]string{class, s.Name}] += d
		tot.self[layerOf(s.Name)] += d - covered(s, children[s.ID])
	}
	return tot
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	cur := parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return time.Duration(sum)
}
