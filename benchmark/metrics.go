package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric names and units a run emits; they
// must equal the lists in BENCHMARK.json (benchmark_test.go checks it).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"build_p50_s", "s"},
	{"build_tail_s", "s"},
	{"code_bytes", "B"},
	{"image_bytes", "B"},
	{"alloc_mb_per_build", "MB"},
	{"peak_rss_mb", "MB"},
	{"exec_dyn_insts", "count"},
	{"exec_sim_cycles", "count"},
	{"touched_pages_4k", "count"},
	{"cross_page_call_pct", "%"},
}

var perLayer = []metricDef{
	{"frontend.parse_s", "s"}, {"frontend.tokens", "count"}, {"frontend.tokens_per_s", "1/s"},
	{"frontend.index_s", "s"}, {"frontend.check_s", "s"},
	{"sir.generate_s", "s"}, {"sir.passes_s", "s"}, {"sir.funcs", "count"}, {"sir.insts", "count"},
	{"llir.fromsir_s", "s"}, {"llir.cleanup_s", "s"}, {"llir.merge_s", "s"},
	{"llir.insts", "count"}, {"llir.funcs_merged", "count"},
	{"irlink.link_s", "s"}, {"irlink.funcs", "count"}, {"irlink.globals", "count"},
	{"codegen.compile_s", "s"}, {"codegen.insts", "count"}, {"codegen.insts_per_s", "1/s"},
	{"codegen.code_bytes", "B"},
	{"suffixtree.build_s", "s"}, {"suffixtree.enumerate_s", "s"}, {"suffixtree.symbols", "count"},
	{"suffixtree.nodes", "count"}, {"suffixtree.repeats", "count"},
	{"outline.total_s", "s"}, {"outline.permodule_s", "s"}, {"outline.analyze_s", "s"},
	{"outline.rounds_run", "count"}, {"outline.candidates_found", "count"},
	{"outline.candidates_selected", "count"}, {"outline.select_ratio", "ratio"},
	{"outline.sequences", "count"}, {"outline.functions", "count"}, {"outline.bytes_saved", "B"},
	{"layout.apply_s", "s"}, {"layout.moved", "count"}, {"layout.clusters", "count"},
	{"layout.cap_rejects", "count"}, {"layout.cross_page_pct_before", "%"}, {"layout.touched_pages_before", "count"},
	{"binimg.build_s", "s"}, {"binimg.symbols", "count"},
	{"verify.program_s", "s"}, {"verify.image_s", "s"}, {"verify.funcs_checked", "count"},
	{"verify.violations", "count"},
	{"artifact.encode_module_s", "s"}, {"artifact.decode_module_s", "s"}, {"artifact.module_bytes", "B"},
	{"artifact.encode_machine_s", "s"}, {"artifact.decode_machine_s", "s"}, {"artifact.machine_bytes", "B"},
	{"artifact.decode_mb_per_s", "MB/s"},
	{"cache.key_hash_s", "s"}, {"cache.put_s", "s"}, {"cache.get_mem_s", "s"}, {"cache.get_disk_s", "s"},
	{"cache.entries", "count"}, {"cache.bytes", "B"}, {"cache.hit_pct", "%"},
	{"cache.llir_misses", "count"}, {"cache.machine_misses", "count"}, {"cache.remote_ops", "count"},
	{"cache.iface_edit_llir_misses", "count"},
	{"par.speedup_j2", "ratio"},
	{"pipeline.frontend_s", "s"}, {"pipeline.link_s", "s"}, {"pipeline.opt_s", "s"},
	{"pipeline.llc_s", "s"}, {"pipeline.outline_s", "s"}, {"pipeline.layout_s", "s"},
	{"pipeline.ld_s", "s"}, {"pipeline.iface_edit_s", "s"}, {"pipeline.trace_overhead_pct", "%"},
	{"slcd.inproc_p50_s", "s"}, {"slcd.http_overhead_s", "s"}, {"slcd.request_bytes", "B"},
	{"slcd.response_bytes", "B"}, {"slcd.flight_execs", "count"}, {"slcd.flight_waits", "count"},
	{"slcd.shed", "count"}, {"slcd.failures", "count"},
	{"exec.run_s", "s"}, {"exec.steps_per_s", "1/s"}, {"exec.outlined_inst_pct", "%"},
	{"perf.sim_s", "s"}, {"perf.pagetouch_s", "s"}, {"perf.icache_misses", "count"},
	{"perf.itlb_misses", "count"},
	{"profile.collect_s", "s"}, {"profile.encoded_bytes", "B"},
	{"walk.wall_s", "s"}, {"walk.layer_self_pct", "%"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects measurements by name; emit checks them against a registry
// so a run can neither drop a metric nor invent one.
type values map[string]float64

func (v values) emit(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	if len(v) != len(defs) {
		for name := range v {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the registry", name)
			}
		}
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}
