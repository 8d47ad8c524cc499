// Package obs is the build pipeline's measurement substrate: hierarchical
// spans exported as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing), named counters, and an LLVM-optimization-remarks-style
// stream of outliner candidate decisions.
//
// The paper's analysis (Figures 5-8, 12, 13; Table II) was only possible
// because LLVM's remarks machinery records what the toolchain actually did;
// this package plays the same role for the reproduction. Everything is
// concurrency-safe — spans and counters are emitted from the worker pools of
// internal/par — and everything is strictly observational: a Tracer never
// influences compilation, so builds are byte-identical with telemetry on,
// off, or absent (a nil *Tracer is a valid no-op receiver for every method).
//
// Two collection levels exist:
//
//   - nil *Tracer: every method is a no-op that allocates nothing. This is
//     what a build runs with when no telemetry was requested.
//   - New / NewWith: full collection, optionally including per-function
//     codegen spans (Config.FineSpans) and per-stage runtime.ReadMemStats
//     allocation deltas (Config.MemStats).
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Config tunes what a full Tracer collects beyond spans, counters, and
// remarks.
type Config struct {
	// FineSpans additionally records high-volume spans: one per function in
	// code generation. Useful for trace inspection; off by default because a
	// whole-program build can have thousands of functions.
	FineSpans bool
	// MemStats records a runtime.ReadMemStats allocation delta for every
	// stage span, surfaced as "mem/<stage>/alloc_bytes" counters. Deltas are
	// process-global, so concurrent stages attribute allocation
	// approximately.
	MemStats bool
}

// Tracer collects spans, counters, and remarks for one or more builds. All
// methods are safe for concurrent use and safe on a nil receiver.
type Tracer struct {
	start time.Time

	fine bool // per-function spans
	mem  bool // per-stage memstats deltas

	mu       sync.Mutex
	events   []event
	counters map[string]int64
	batches  []remarkBatch
}

// event is one completed span.
type event struct {
	name  string
	tid   int // trace track: 0 = main, 1+n = worker lane n
	start time.Duration
	dur   time.Duration
	stage bool
	args  map[string]any
}

// New returns a Tracer with full collection (spans, counters, remarks) and
// default Config.
func New() *Tracer { return NewWith(Config{}) }

// NewWith returns a Tracer with full collection tuned by cfg.
func NewWith(cfg Config) *Tracer {
	return &Tracer{
		start:    time.Now(),
		fine:     cfg.FineSpans,
		mem:      cfg.MemStats,
		counters: map[string]int64{},
	}
}

// RemarksEnabled reports whether Emit/EmitBatch would record remarks;
// callers use it to skip building remark records entirely.
func (t *Tracer) RemarksEnabled() bool { return t != nil }

// FineEnabled reports whether high-volume spans are being collected.
func (t *Tracer) FineEnabled() bool { return t != nil && t.fine }

// Span is an in-flight interval. End completes it. A nil *Span (from a
// disabled Tracer) is valid: End and Arg are no-ops.
type Span struct {
	t     *Tracer
	name  string
	tid   int
	stage bool
	start time.Duration
	args  map[string]any
	alloc uint64
}

// StartStage opens a stage span: a top-level pipeline phase whose durations
// are summed by name into StageTotals (and hence pipeline.Result.Timings).
// lane is the trace track (0 = main; worker code passes its 1-based
// lane so concurrent stages render on separate tracks and stay well-nested).
func (t *Tracer) StartStage(name string, lane int) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, tid: lane, stage: true, start: time.Since(t.start)}
	if t.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.alloc = ms.TotalAlloc
	}
	return s
}

// StartSpan opens a regular (non-stage) span on the given lane.
func (t *Tracer) StartSpan(name string, lane int) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, tid: lane, start: time.Since(t.start)}
}

// StartFine opens a high-volume span (per-function codegen); recorded only
// when Config.FineSpans was set.
func (t *Tracer) StartFine(name string, lane int) *Span {
	if t == nil || !t.fine {
		return nil
	}
	return &Span{t: t, name: name, tid: lane, start: time.Since(t.start)}
}

// Arg attaches a key/value rendered into the trace event's args. Returns s
// for chaining.
func (s *Span) Arg(k string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = map[string]any{}
	}
	s.args[k] = v
	return s
}

// End completes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	dur := time.Since(t.start) - s.start
	if s.stage && t.mem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Add("mem/"+s.name+"/alloc_bytes", int64(ms.TotalAlloc-s.alloc))
	}
	t.mu.Lock()
	t.events = append(t.events, event{
		name: s.name, tid: s.tid, start: s.start, dur: dur,
		stage: s.stage, args: s.args,
	})
	t.mu.Unlock()
}

// Add increments the named counter by delta.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Set overwrites the named counter (gauge semantics).
func (t *Tracer) Set(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] = v
	t.mu.Unlock()
}

// Counter returns the named counter's current value.
func (t *Tracer) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// Counters returns a snapshot copy of every counter. Diffing two snapshots
// scopes counters to one build when a Tracer is shared across builds. A nil
// Tracer returns a nil map.
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	out := map[string]int64{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counters {
		out[k] = v
	}
	return out
}

// Mark returns a position in the event stream; StageTotalsSince(mark) sums
// only spans completed after it. Builds take a mark on entry so a shared
// Tracer still yields per-build timings.
func (t *Tracer) Mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// StageTotalsSince sums the durations of stage spans completed after mark,
// keyed by span name. Repeated stages — one "machine-outline" span per
// outlining round, one per module in the default pipeline — accumulate into
// one well-defined total. Concurrent stages sum their per-worker time, so a
// total can exceed the build's wall clock. A nil Tracer returns a nil map.
func (t *Tracer) StageTotalsSince(mark int) map[string]time.Duration {
	if t == nil {
		return nil
	}
	out := map[string]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	if mark < 0 || mark > len(t.events) {
		mark = 0
	}
	for _, e := range t.events[mark:] {
		if e.stage {
			out[e.name] += e.dur
		}
	}
	return out
}

// StageTotals sums every stage span the Tracer has seen.
func (t *Tracer) StageTotals() map[string]time.Duration { return t.StageTotalsSince(0) }
