package pipeline_test

import (
	"reflect"
	"runtime"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/pipeline"
)

// buildParallel builds the synthetic app under cfg with the given worker
// bound and returns the result.
func buildParallel(t *testing.T, cfg pipeline.Config, workers int) *pipeline.Result {
	t.Helper()
	cfg.Parallelism = workers
	res, err := appgen.BuildApp(appgen.UberRider, 0.3, cfg)
	if err != nil {
		t.Fatalf("Parallelism=%d: %v", workers, err)
	}
	return res
}

// assertSameBuild asserts two builds are byte-identical: same machine
// program (the textual form covers every instruction byte), same laid-out
// image, same outlining statistics.
func assertSameBuild(t *testing.T, want, got *pipeline.Result, label string) {
	t.Helper()
	if w, g := want.Prog.String(), got.Prog.String(); w != g {
		t.Errorf("%s: machine programs differ (%d vs %d bytes of text)", label, len(w), len(g))
	}
	if !reflect.DeepEqual(want.Image, got.Image) {
		t.Errorf("%s: binary images differ: code %d/%d, total %d/%d",
			label, want.Image.CodeSize, got.Image.CodeSize,
			want.Image.TotalSize, got.Image.TotalSize)
	}
	if !reflect.DeepEqual(want.Outline, got.Outline) {
		t.Errorf("%s: outline stats differ:\n want %+v\n  got %+v", label, want.Outline, got.Outline)
	}
}

// TestParallelBuildDeterminism is the PR's hard requirement: the
// whole-program OSize build must produce a byte-identical binary image for
// any Parallelism value. Worker counts above GOMAXPROCS are included so the
// test exercises real goroutine interleaving even on a single-core machine.
func TestParallelBuildDeterminism(t *testing.T) {
	serial := buildParallel(t, pipeline.OSize, 1)
	for _, workers := range []int{2, 4, runtime.NumCPU()} {
		got := buildParallel(t, pipeline.OSize, workers)
		assertSameBuild(t, serial, got, "whole-program OSize, j="+itoa(workers))
	}
	// Same setting twice: catches nondeterminism that varies run to run
	// (map iteration order feeding candidate discovery, say) rather than
	// with the worker count.
	again := buildParallel(t, pipeline.OSize, 2)
	got := buildParallel(t, pipeline.OSize, 2)
	assertSameBuild(t, again, got, "whole-program OSize, j=2 repeated")
}

// TestParallelDefaultPipelineDeterminism covers the default pipeline's
// per-module codegen+outline fan-out.
func TestParallelDefaultPipelineDeterminism(t *testing.T) {
	cfg := pipeline.Default
	cfg.SpecializeClosures = true
	cfg.MergeFunctions = true
	serial := buildParallel(t, cfg, 1)
	for _, workers := range []int{2, runtime.NumCPU()} {
		got := buildParallel(t, cfg, workers)
		assertSameBuild(t, serial, got, "default pipeline, j="+itoa(workers))
	}
}

// TestParallelSourceBuildDeterminism drives pipeline.Build from source
// (frontend included) at several worker counts.
func TestParallelSourceBuildDeterminism(t *testing.T) {
	sources := []pipeline.Source{
		{Name: "app", Files: map[string]string{"app.sl": srcApp}},
		{Name: "models", Files: map[string]string{"models.sl": srcModels}},
		{Name: "vendor", Files: map[string]string{"vendor.sl": srcVendor}},
	}
	build := func(workers int) *pipeline.Result {
		cfg := pipeline.OSize
		cfg.Verify = true
		cfg.Parallelism = workers
		res, err := pipeline.Build(sources, cfg)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", workers, err)
		}
		return res
	}
	serial := build(1)
	for _, workers := range []int{2, 4} {
		assertSameBuild(t, serial, build(workers), "source build, j="+itoa(workers))
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n /= 10 {
		b = append([]byte{byte('0' + n%10)}, b...)
	}
	return string(b)
}

const srcApp = `
func work(a: Int, b: Int) -> Int {
	var t = makePair(a, b)
	return t.sum()
}

func main() {
	var i = 0
	var acc = 0
	while i < 4 {
		acc = acc + work(i, i + 1)
		i = i + 1
	}
	print(acc)
}
`

const srcModels = `
class Pair {
	var x: Int
	var y: Int
	func sum() -> Int { return self.x + self.y }
}

func makePair(a: Int, b: Int) -> Pair {
	return Pair(x: a, y: b)
}
`

const srcVendor = `
func clampV(v: Int, lo: Int, hi: Int) -> Int {
	if v < lo { return lo }
	if v > hi { return hi }
	return v
}
`
