package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// operation share Trace (the ID of its root span); Parent is 0 for a root.
// Reps > 1 marks a span that wraps that many back-to-back calls, used where
// one call is too short to time alone.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Reps   int           `json:"reps,omitempty"`
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// perCall is the span's duration divided over its repetitions.
func (s *span) perCall() time.Duration {
	if s.Reps > 1 {
		return s.dur() / time.Duration(s.Reps)
	}
	return s.dur()
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: start returns 0 and end does nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<17)}
}

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans) + 1
	tr := id
	if parent > 0 {
		tr = t.spans[parent-1].Trace
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: tr, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// endReps closes span id as reps back-to-back calls.
func (t *tracer) endReps(id, reps int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Reps = reps
	t.mu.Unlock()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// since returns the per-call durations of the spans named name recorded
// from index from on.
func (t *tracer) since(from int, name string) []time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, s.perCall())
		}
	}
	return out
}

// mark is the current span count, a cursor for since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p > 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		var ivs [][2]time.Duration
		for _, k := range kids[s.ID] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := time.Duration(0), s.Start
		for _, iv := range ivs {
			if iv[0] > reach {
				reach = iv[0]
			}
			if iv[1] > reach {
				covered += iv[1] - reach
				reach = iv[1]
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSummary prints one line per span name: count, median per-call
// duration and median self time.
func writeSummary(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct{ dur, self []float64 }
	by := make(map[string]*agg)
	var names []string
	for i := range spans {
		s := &spans[i]
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		reps := time.Duration(max(s.Reps, 1))
		a.dur = append(a.dur, float64(s.perCall())/1e3)
		a.self = append(a.self, float64(self[i]/reps)/1e3)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "# span %-40s n=%-6d p50_us=%-12.3f self_p50_us=%.3f\n", n, len(a.dur), median(a.dur), median(a.self))
	}
}

// writeSpans stores every span as JSON in dir.
func writeSpans(dir, base string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base)
	data, err := json.Marshal(spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
