package pipeline_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"outliner/internal/cache"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

// TestTelemetryDoesNotPerturbBuild is the observability PR's hard
// requirement: a build with full telemetry (fine spans, memstats, remarks)
// is byte-identical to one with no tracer at all, at any worker count.
func TestTelemetryDoesNotPerturbBuild(t *testing.T) {
	plain := buildParallel(t, pipeline.OSize, 1)
	for _, workers := range []int{1, 4} {
		cfg := pipeline.OSize
		cfg.Tracer = obs.NewWith(obs.Config{FineSpans: true, MemStats: true})
		got := buildParallel(t, cfg, workers)
		assertSameBuild(t, plain, got, "traced OSize, j="+itoa(workers))
	}
	// The default pipeline exercises the per-module codegen+outline fan-out.
	def := pipeline.Default
	def.SpecializeClosures = true
	def.MergeFunctions = true
	plainDef := buildParallel(t, def, 1)
	for _, workers := range []int{1, runtime.NumCPU()} {
		cfg := def
		cfg.Tracer = obs.NewWith(obs.Config{FineSpans: true, MemStats: true})
		got := buildParallel(t, cfg, workers)
		assertSameBuild(t, plainDef, got, "traced default, j="+itoa(workers))
	}
}

// TestRemarksDeterministicAcrossWorkers asserts the serialized remarks
// stream is byte-identical for serial and parallel builds — per-module
// outlining emits remark batches from worker goroutines, and WriteRemarks
// must order them stably.
func TestRemarksDeterministicAcrossWorkers(t *testing.T) {
	cfg := pipeline.Default
	cfg.SpecializeClosures = true
	cfg.MergeFunctions = true
	remarksFor := func(workers int) string {
		c := cfg
		tr := obs.New()
		c.Tracer = tr
		buildParallel(t, c, workers)
		var buf bytes.Buffer
		if err := tr.WriteRemarks(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := remarksFor(1)
	if serial == "" {
		t.Fatal("no remarks emitted")
	}
	for _, workers := range []int{2, 4} {
		if got := remarksFor(workers); got != serial {
			t.Errorf("remarks stream differs between j=1 and j=%d", workers)
		}
	}
}

// TestTimingsSumAcrossRounds covers the Timings accumulation fix: five
// outlining rounds each emit a "machine-outline" stage span and
// Result.Timings must hold their sum, not the last round's time.
func TestTimingsSumAcrossRounds(t *testing.T) {
	tr := obs.New()
	cfg := pipeline.OSize
	cfg.Tracer = tr
	res := buildParallel(t, cfg, 1)
	if res.Timings["machine-outline"] <= 0 {
		t.Fatalf("Timings missing machine-outline: %v", res.Timings)
	}
	if rounds := len(res.Outline.Rounds); rounds < 2 {
		t.Fatalf("expected several outlining rounds, got %d", rounds)
	}
	if got, want := res.Timings["machine-outline"], tr.StageTotals()["machine-outline"]; got != want {
		t.Errorf("Timings[machine-outline] = %v, stage total = %v", got, want)
	}
	for _, stage := range []string{"llvm-link", "opt", "llc"} {
		if res.Timings[stage] <= 0 {
			t.Errorf("Timings missing stage %q: %v", stage, res.Timings)
		}
	}
}

// TestNilTracerCostsNothing: without a tracer a build records nothing, not
// even its stage times, and no obs method allocates on a nil tracer or span.
func TestNilTracerCostsNothing(t *testing.T) {
	res, err := pipeline.Build(appgenApp(4)[0].srcs, pipeline.OSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 0 {
		t.Errorf("an untraced build has Timings %v", res.Timings)
	}
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var tr *obs.Tracer
	rems := []obs.Remark{{Pass: "p"}}
	for name, call := range map[string]func(){
		"StartStage":       func() { tr.StartStage("s", 0).Arg("k", 1).End() },
		"StartSpan":        func() { tr.StartSpan("s", 1).End() },
		"StartFine":        func() { tr.StartFine("s", 1).End() },
		"Add":              func() { tr.Add("c", 1) },
		"Set":              func() { tr.Set("c", 1) },
		"EmitBatch":        func() { tr.EmitBatch("o", rems) },
		"RemarksEnabled":   func() { _ = tr.RemarksEnabled() },
		"FineEnabled":      func() { _ = tr.FineEnabled() },
		"Counter":          func() { _ = tr.Counter("c") },
		"Counters":         func() { _ = tr.Counters() },
		"Mark":             func() { _ = tr.Mark() },
		"StageTotalsSince": func() { _ = tr.StageTotalsSince(0) },
		"StageTotals":      func() { _ = tr.StageTotals() },
		"Remarks":          func() { _ = tr.Remarks() },
		"WriteRemarks":     func() { _ = tr.WriteRemarks(io.Discard) },
		"WriteTrace":       func() { _ = tr.WriteTrace(io.Discard) },
		"WriteSummary":     func() { _ = tr.WriteSummary(io.Discard) },
	} {
		if n := testing.AllocsPerRun(10, call); n != 0 {
			t.Errorf("%s on a nil tracer: %v allocations, want 0", name, n)
		}
	}
}

// TestRemarksCoverBuild cross-checks the remarks stream against the build's
// own statistics, in both pipelines: one "selected" remark per function the
// outliner created, and every rejected remark names a reason.
func TestRemarksCoverBuild(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  pipeline.Config
	}{{"osize", pipeline.OSize}, {"default", pipeline.Default}} {
		t.Run(c.name, func(t *testing.T) { remarksCoverBuild(t, c.cfg) })
	}
}

func remarksCoverBuild(t *testing.T, cfg pipeline.Config) {
	tr := obs.New()
	cfg.Tracer = tr
	res := buildParallel(t, cfg, 1)
	selected := 0
	for _, r := range tr.Remarks() {
		switch r.Status {
		case "selected":
			selected++
			if r.Function == "" {
				t.Error("selected remark without a function name")
			}
		case "rejected":
			if r.Reason == "" {
				t.Errorf("rejected remark without a reason: %+v", r)
			}
		default:
			t.Errorf("unknown remark status %q", r.Status)
		}
	}
	created := res.Outline.TotalFunctions()
	if created == 0 {
		t.Error("the build outlined nothing")
	}
	if selected != created {
		t.Errorf("%d selected remarks but %d functions created", selected, created)
	}

	// The trace the same build produced must be valid Chrome trace JSON.
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
}

// TestTelemetryDoesNotPerturbCachedBuild: the warm path — stubs, summary
// headers, lazily decoded bodies — is as indifferent to the tracer as the
// cold one, and its "cache llir" spans say whether lowering left a body
// behind: a miss (hit=false) always does, a default-pipeline hit says
// body=false.
func TestTelemetryDoesNotPerturbCachedBuild(t *testing.T) {
	dir := t.TempDir()
	defer cache.Forget(dir)
	cfg := pipeline.Config{OutlineRounds: 1, SILOutline: true, MergeFunctions: true, Verify: true}
	srcs := cacheTestSources()
	ref, _ := buildListing(t, cfg, "", srcs)

	bodies := func(tr *obs.Tracer) map[string]map[string]any {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var tf struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
			t.Fatal(err)
		}
		out := map[string]map[string]any{}
		for _, e := range tf.TraceEvents {
			if strings.HasPrefix(e.Name, "cache llir ") {
				out[e.Name] = e.Args
			}
		}
		return out
	}
	for _, pass := range []struct {
		name      string
		arg, want string
	}{{"cold", "hit", "false"}, {"warm", "body", "false"}} {
		full := cfg
		full.CacheDir = dir
		full.Tracer = obs.NewWith(obs.Config{FineSpans: true, MemStats: true})
		res, err := pipeline.Build(srcs, full)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteImageListing(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != ref {
			t.Fatalf("%s cached build under a full tracer differs from the untraced uncached build", pass.name)
		}
		got := bodies(full.Tracer)
		if len(got) != len(srcs) {
			t.Fatalf("%s: want one cache llir span per module, got %v", pass.name, got)
		}
		for span, args := range got {
			if v := fmt.Sprint(args[pass.arg]); v != pass.want {
				t.Errorf("%s: span %q has %s=%v, want %v", pass.name, span, pass.arg, v, pass.want)
			}
		}
	}
	// And with no tracer at all over the same warm directory.
	untraced := cfg
	untraced.CacheDir = dir
	res, err := pipeline.Build(srcs, untraced)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteImageListing(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ref {
		t.Fatal("warm cached build without a tracer differs from the uncached build")
	}
}
