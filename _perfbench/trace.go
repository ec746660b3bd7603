package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"wormsim/internal/core"
)

// tracer keeps the traced run's spans in memory; write dumps them once the
// run is over, so recording costs an append and no I/O.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed interval at a layer boundary. ID groups the spans of
// one operation (a point, a request); Parent names the span that caused
// it. A span with End == Start is an instant event.
type span struct {
	Name   string
	Layer  string
	ID     int64
	Parent int64
	Start  time.Duration
	End    time.Duration
	Args   map[string]any
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: time since the tracer was created.
func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans as a Chrome trace (chrome://tracing, Perfetto):
// one lane per layer, spans of one operation sharing args.id.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		S    string         `json:"s,omitempty"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		for k, v := range s.Args {
			args[k] = v
		}
		e := event{Name: s.Name, Cat: s.Layer, Ph: "X", Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 1, Tid: s.Layer, Args: args}
		if s.End == s.Start {
			e.Ph, e.Dur, e.S = "i", 0, "t"
		}
		evs = append(evs, e)
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// recorder is a pass-through core.ResultCache: every Lookup misses, so the
// library simulates every point as it would with no cache, and the Lookup
// before a point and the Store after it stamp the point's start and end.
// It is how the benchmark times points from outside the library.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	open  map[string]time.Duration
	spans []pointSpan
}

type pointSpan struct {
	load       float64
	seed       uint64
	start, end time.Duration
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, open: map[string]time.Duration{}}
}

func (c *recorder) Lookup(hash string) (core.Result, bool) {
	now := time.Since(c.t0)
	c.mu.Lock()
	c.open[hash] = now
	c.mu.Unlock()
	return core.Result{}, false
}

func (c *recorder) Store(hash string, cfg core.Config, _ core.Result) error {
	now := time.Since(c.t0)
	c.mu.Lock()
	c.spans = append(c.spans, pointSpan{load: cfg.OfferedLoad, seed: cfg.Seed, start: c.open[hash], end: now})
	delete(c.open, hash)
	c.mu.Unlock()
	return nil
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs, which it
// sorts in place; 0 when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
