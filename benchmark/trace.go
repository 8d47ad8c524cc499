package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer's
// public function. Spans nest by call order on the walk's single goroutine,
// so parent is simply the span that was open when this one began.
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's origin
	parent     int           // index into recorder.spans, -1 for a root
	counts     map[string]int64
}

// recorder keeps spans in memory; nothing is written until the run ends.
type recorder struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, origin: time.Now()}
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{name: name, start: time.Since(r.origin), parent: parent})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("benchmark: span %q closed out of order", r.spans[id].name))
	}
	r.spans[id].end = time.Since(r.origin)
	r.open = r.open[:len(r.open)-1]
}

// count attaches a layer's work count to the span begun last: the one still
// open around the call, or the one that just closed and returned the count.
func (r *recorder) count(key string, n int64) {
	s := &r.spans[len(r.spans)-1]
	if s.counts == nil {
		s.counts = map[string]int64{}
	}
	s.counts[key] += n
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range r.spans {
		out[s.name] += self[i]
	}
	return out
}

// wellNested reports whether every span is closed and lies inside its parent.
func (r *recorder) wellNested() error {
	if len(r.open) != 0 {
		return fmt.Errorf("%d spans still open", len(r.open))
	}
	for _, s := range r.spans {
		if s.end < s.start {
			return fmt.Errorf("span %q ends before it starts", s.name)
		}
		if s.parent >= 0 {
			if p := r.spans[s.parent]; s.start < p.start || s.end > p.end {
				return fmt.Errorf("span %q escapes its parent %q", s.name, p.name)
			}
		}
	}
	return nil
}

// writeChrome writes the spans as Chrome-trace "complete" events.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		args := map[string]any{"id": i, "parent": s.parent, "workload": r.workload}
		for k, v := range s.counts {
			args[k] = v
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1, Args: args,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
