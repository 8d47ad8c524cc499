package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestNilTracerNoop: every method must be callable on a nil Tracer and nil
// Span — the disabled-telemetry path of the pipeline.
func TestNilTracerNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.StartStage("x", 0)
	sp.Arg("k", 1)
	sp.End()
	tr.StartSpan("y", 1).End()
	tr.StartFine("z", 2).End()
	tr.Add("c", 1)
	tr.Set("g", 2)
	tr.EmitBatch("o", []Remark{{Pass: "p"}})
	if tr.Counter("c") != 0 || len(tr.Counters()) != 0 || len(tr.Remarks()) != 0 {
		t.Fatal("nil tracer recorded something")
	}
	if got := tr.StageTotals(); len(got) != 0 {
		t.Fatalf("nil tracer stage totals: %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if tr.RemarksEnabled() || tr.FineEnabled() {
		t.Fatal("nil tracer claims to be enabled")
	}
}

// TestStageTotalsSum is the regression test for the Timings accumulation
// fix: repeated stages with the same name (outlining rounds, per-module
// stages) must sum, not last-write-win; Mark scopes totals to one build.
func TestStageTotalsSum(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		sp := tr.StartStage("machine-outline", 0)
		time.Sleep(2 * time.Millisecond)
		sp.End()
	}
	total := tr.StageTotals()["machine-outline"]
	if total < 6*time.Millisecond {
		t.Fatalf("same-name stages did not sum: total %v < 6ms", total)
	}
	mark := tr.Mark()
	sp := tr.StartStage("machine-outline", 0)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	since := tr.StageTotalsSince(mark)["machine-outline"]
	if since >= total {
		t.Fatalf("StageTotalsSince(mark)=%v should exclude the first %v", since, total)
	}
	if since < 2*time.Millisecond {
		t.Fatalf("StageTotalsSince(mark)=%v < 2ms", since)
	}
}

// TestConcurrentEmission hammers spans, counters, and remark batches from
// many goroutines; run under -race this is the concurrency-safety guard.
func TestConcurrentEmission(t *testing.T) {
	tr := NewWith(Config{FineSpans: true, MemStats: true})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.StartSpan("work", w+1).Arg("i", i)
				tr.StartFine("fine", w+1).End()
				tr.Add("items", 1)
				sp.End()
			}
			tr.EmitBatch("origin", []Remark{{Pass: "machine-outliner", Status: "selected"}})
		}()
	}
	wg.Wait()
	if got := tr.Counter("items"); got != workers*per {
		t.Fatalf("counter items = %d, want %d", got, workers*per)
	}
	if got := len(tr.Remarks()); got != workers {
		t.Fatalf("remarks = %d, want %d", got, workers)
	}
}

// TestTraceWellNested builds nested and worker-lane spans and checks that
// the emitted Chrome trace decodes and that events are well-nested per
// track: any two events on one tid either nest or are disjoint.
func TestTraceWellNested(t *testing.T) {
	tr := New()
	outer := tr.StartStage("llc", 0)
	var wg sync.WaitGroup
	for lane := 1; lane <= 4; lane++ {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				sp := tr.StartSpan("module", lane)
				inner := tr.StartSpan("codegen", lane)
				time.Sleep(time.Millisecond)
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	outer.End()

	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	type iv struct{ lo, hi float64 }
	perTid := map[int][]iv{}
	for _, e := range tf.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		perTid[e.Tid] = append(perTid[e.Tid], iv{e.Ts, e.Ts + e.Dur})
	}
	if len(perTid) != 5 { // main + 4 worker lanes
		t.Fatalf("want 5 tracks, got %d", len(perTid))
	}
	const eps = 1e-6
	for tid, ivs := range perTid {
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].lo != ivs[j].lo {
				return ivs[i].lo < ivs[j].lo
			}
			return ivs[i].hi > ivs[j].hi
		})
		var stack []iv
		for _, cur := range ivs {
			for len(stack) > 0 && stack[len(stack)-1].hi <= cur.lo+eps {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 && cur.hi > stack[len(stack)-1].hi+eps {
				t.Fatalf("tid %d: event [%v,%v] overlaps enclosing [%v,%v] without nesting",
					tid, cur.lo, cur.hi, stack[len(stack)-1].lo, stack[len(stack)-1].hi)
			}
			stack = append(stack, cur)
		}
	}
}

// TestRemarksRoundTrip: WriteRemarks → ReadRemarks is the identity, and
// batches are ordered deterministically by origin regardless of emission
// order.
func TestRemarksRoundTrip(t *testing.T) {
	tr := New()
	b := []Remark{{
		Pass: "machine-outliner", Status: "rejected", Reason: "unprofitable",
		Round: 2, Module: "B", PatternLen: 3, Occurrences: 2, Benefit: -4, Strategy: "plain",
	}}
	a := []Remark{
		{Pass: "machine-outliner", Status: "selected", Round: 1, Module: "A",
			Function: "OUTLINED_FUNCTION_0", PatternLen: 5, Occurrences: 4, Benefit: 36, Strategy: "tail-call"},
		{Pass: "machine-outliner", Status: "rejected", Reason: "occurrences-overlap",
			Round: 1, Module: "A", PatternLen: 4, Occurrences: 2, Benefit: 8, Strategy: "thunk"},
	}
	tr.EmitBatch("B", b) // emitted first, sorts second
	tr.EmitBatch("A", a)

	var buf bytes.Buffer
	if err := tr.WriteRemarks(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRemarks(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Remark(nil), a...), b...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestSummary renders a summary with a stage and counters and checks both
// tables pick them up.
func TestSummary(t *testing.T) {
	tr := New()
	tr.StartStage("llc", 0).End()
	tr.Add("codegen/functions", 42)
	tr.Add("outline/rounds", 2)
	var buf bytes.Buffer
	if err := tr.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"stage times", "llc", "codegen/functions", "42", "outline/rounds"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
