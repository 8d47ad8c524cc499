package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSchema runs every workload, untraced and traced, on a small corpus and
// holds what it prints against BENCHMARK.json: same workloads, same metric
// names and units, nothing missing, nothing extra, every value finite.
func TestSchema(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sp.Workloads); n != len(workloads) || n > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the runner has %d (limit 8)", n, len(workloads))
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics exceed the limits 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range sp.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range sp.PerLayer {
		layer[m.Name] = m.Unit
	}
	for name := range e2e {
		if _, dup := layer[name]; dup {
			t.Errorf("metric name %s is used twice", name)
		}
	}
	if _, ok := e2e["setup_s"]; !ok {
		t.Error("setup_s is not an end-to-end metric")
	}

	code := map[string]float64{}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %s in BENCHMARK.json, %s in the runner", i, sp.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 7, corpusSeed: pinnedCorpusSeed, ops: 2, modules: testCorpus, trace: trace, out: t.TempDir()}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if trace {
				want = layer
				if _, err := os.Stat(filepath.Join(o.out, w.name+".trace.json")); err != nil {
					t.Errorf("%s: no trace written: %v", w.name, err)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json lists %d", w.name, trace, len(res.Metrics), len(want))
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q breaks the naming rule", name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s emits %s, which BENCHMARK.json does not list", w.name, name)
				} else if unit != m.Unit {
					t.Errorf("%s: unit %q emitted, %q listed", name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s/%s is not finite", w.name, name)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s/%s is 0; end-to-end metrics must never be", w.name, name)
				}
			}
			if !trace {
				code[w.name] = res.Metrics["code_bytes"].Value
			}
		}
	}
	if code["pm-cold"] != code["pm-edit"] {
		t.Errorf("pm-cold built %v code bytes, pm-edit %v: one pipeline, one corpus", code["pm-cold"], code["pm-edit"])
	}
}

// TestQuartileSpread pins the quartile method to Python's
// statistics.quantiles(xs, n=4), the one the acceptance rule names.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quartiles 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("one value has spread %v, want 0", got)
	}
}

// TestCompare checks each verdict -compare can reach.
func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(scale map[string]float64) string {
		s := set{Runs: 1, Rows: map[string][]result{}}
		for _, w := range sp.Workloads {
			r := result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				f, ok := scale[m.Name]
				if !ok {
					f = 1
				}
				r.Metrics[m.Name] = metric{Value: 100 * f, Unit: m.Unit}
			}
			s.Rows[w.Name] = []result{r}
		}
		path := filepath.Join(t.TempDir(), "set.json")
		data, _ := json.Marshal(s)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(nil)
	for _, c := range []struct {
		name     string
		scale    map[string]float64
		sameCode bool
		want     bool
	}{
		{"identical", nil, true, true},
		{"faster", map[string]float64{"build_p50_s": 0.5}, true, true},
		{"slower within bound", map[string]float64{"build_p50_s": 1.05}, false, true},
		{"slower beyond bound", map[string]float64{"build_p50_s": 1.5}, false, false},
		{"smaller code, other commit", map[string]float64{"code_bytes": 0.9}, false, true},
		{"smaller code, same commit", map[string]float64{"code_bytes": 0.9}, true, false},
	} {
		got, err := compareSets(io.Discard, base, write(c.scale), c.sameCode)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: accepted=%t, want %t", c.name, got, c.want)
		}
	}
}
