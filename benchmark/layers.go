package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/obs"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

// walkSpans are the spans a walk may record; each gives the metric
// "<span>_s", its summed self time. walkCounts are the counts a walk may
// attach. Both start at zero because a pipeline that skips a layer (no IR
// link per module, no layout without a profile) reports that layer idle.
var walkSpans = []string{
	"frontend.parse", "frontend.index", "frontend.check",
	"sir.generate", "sir.passes",
	"llir.fromsir", "llir.cleanup", "llir.merge",
	"irlink.link", "codegen.compile",
	"suffixtree.build", "suffixtree.enumerate",
	"outline.total", "outline.permodule", "outline.analyze",
	"layout.apply", "binimg.build", "verify.program", "verify.image",
	"artifact.encode_module", "artifact.decode_module",
	"artifact.encode_machine", "artifact.decode_machine",
	"cache.key_hash", "cache.put", "cache.get_mem", "cache.get_disk",
}

var walkCounts = []string{
	"frontend.tokens", "sir.funcs", "sir.insts", "llir.insts", "llir.funcs_merged",
	"irlink.funcs", "irlink.globals", "codegen.insts", "codegen.code_bytes",
	"suffixtree.symbols", "suffixtree.nodes", "suffixtree.repeats",
	"outline.sequences", "outline.functions", "outline.bytes_saved",
	"layout.moved", "layout.clusters", "layout.cap_rejects",
	"binimg.symbols", "verify.funcs_checked", "verify.violations",
	"artifact.module_bytes", "artifact.machine_bytes", "cache.entries", "cache.bytes",
}

// layerMetrics is the traced half of a run. The timed ops before it ran with
// no tracer at all; everything here is measured by the benchmark from outside
// the layers: spans around their public functions, counts from their return
// values, and counters from a public obs.Tracer handed in through the config.
func layerMetrics(st *state, w workload, final *pipeline.Result, want, expected string, timed []sample, tracePath string) (values, bool, error) {
	ok := true
	complain := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchmark: %s: "+format+"\n", append([]any{w.name}, args...)...)
		ok = false
	}
	// Ops beyond every index the timed phases used, so edits stay distinct.
	next := (len(timed) + w.warmup + 1) * w.clients

	// The layer walk.
	wk := &walker{rec: newRecorder(w.name), cfg: st.cfg, flavour: st.flavour, counters: obs.New(), v: values{}}
	for _, name := range walkCounts {
		wk.v[name] = 0
	}
	walked, err := wk.walk(st.c.edited(next))
	if err != nil {
		return nil, false, fmt.Errorf("layer walk: %w", err)
	}
	if hash, err := listingHash(walked); err != nil {
		return nil, false, err
	} else if hash != want {
		complain("the layer walk built image %s, the timed ops %s: the walk did not measure the same computation", short(hash), short(want))
	}
	dir, err := st.env.tempDir("walk-cache")
	if err != nil {
		return nil, false, err
	}
	if err := wk.cacheSpans(dir); err != nil {
		return nil, false, err
	}
	if err := wk.rec.wellNested(); err != nil {
		return nil, false, fmt.Errorf("trace is not well nested: %w", err)
	}
	if err := wk.rec.writeChrome(tracePath); err != nil {
		return nil, false, err
	}

	v := wk.v
	self := wk.rec.selfTimes()
	for _, name := range walkSpans {
		v[name+"_s"] = self[name].Seconds()
	}
	// The walk's wall time is its root span less the benchmark's own
	// bookkeeping; what the root did not spend in a layer span is its self time.
	var own time.Duration
	for name, d := range self {
		if strings.HasPrefix(name, ownWork) {
			own += d
		}
	}
	root := wk.rec.spans[0]
	wall := root.end - root.start - own
	v["walk.wall_s"] = wall.Seconds()
	v["walk.layer_self_pct"] = 100 * ratio((wall-self["walk"]).Seconds(), wall.Seconds())
	v["frontend.tokens_per_s"] = ratio(v["frontend.tokens"], v["frontend.parse_s"])
	v["codegen.insts_per_s"] = ratio(v["codegen.insts"], v["codegen.compile_s"])
	v["artifact.decode_mb_per_s"] = ratio((v["artifact.module_bytes"]+v["artifact.machine_bytes"])/1e6,
		v["artifact.decode_module_s"]+v["artifact.decode_machine_s"])
	v["outline.rounds_run"] = float64(wk.counters.Counter("outline/rounds"))
	v["outline.candidates_found"] = float64(wk.counters.Counter("outline/candidates/found"))
	v["outline.candidates_selected"] = float64(wk.counters.Counter("outline/candidates/selected"))
	v["outline.select_ratio"] = ratio(v["outline.candidates_selected"], v["outline.candidates_found"])

	// The generated program: three executions, each with one observer, so
	// each layer's cost is its own.
	start := time.Now()
	stats, out, err := runEntries(final, exec.Options{})
	if err != nil {
		return nil, false, err
	}
	v["exec.run_s"] = time.Since(start).Seconds()
	v["exec.steps_per_s"] = ratio(float64(stats.DynamicInsts), v["exec.run_s"])
	v["exec.outlined_inst_pct"] = 100 * ratio(float64(stats.OutlinedInsts), float64(stats.DynamicInsts))
	if out != expected {
		complain("program printed %q, reference is %q", out, expected)
	}
	sim := perf.New(device, deviceOS)
	start = time.Now()
	if _, _, err := runEntries(final, exec.Options{Trace: sim.Observe}); err != nil {
		return nil, false, err
	}
	v["perf.sim_s"] = time.Since(start).Seconds()
	simmed := sim.Finish()
	v["perf.icache_misses"] = float64(simmed.ICacheMisses)
	v["perf.itlb_misses"] = float64(simmed.ITLBMisses)
	col := profile.NewCollector()
	start = time.Now()
	if _, _, err := runEntries(final, exec.Options{Profile: col}); err != nil {
		return nil, false, err
	}
	v["profile.collect_s"] = time.Since(start).Seconds()
	prof := col.Profile()
	v["profile.encoded_bytes"] = float64(len(prof.Encode()))
	start = time.Now()
	perf.PageTouch(final.Image, prof, device)
	v["perf.pagetouch_s"] = time.Since(start).Seconds()

	// The farm path, measured before the in-process builds below share the
	// daemon's cache directory.
	p50 := quantile(opSeconds(timed), 0.5)
	for _, name := range []string{"slcd.inproc_p50_s", "slcd.http_overhead_s", "slcd.request_bytes",
		"slcd.response_bytes", "slcd.flight_execs", "slcd.flight_waits", "slcd.shed", "slcd.failures",
		"cache.remote_ops"} {
		v[name] = 0
	}
	if st.svc != nil {
		// The same closed loop as the timed ops, minus HTTP: Server.Build
		// called directly by as many callers.
		direct := runOps(func(i int) sample {
			start := time.Now()
			resp := st.svc.srv.Build(st.request(i))
			s := sample{dur: time.Since(start), hash: hashString(resp.Listing)}
			if !resp.OK {
				s.err = fmt.Errorf("%s: %s", resp.ErrorClass, resp.Error)
			}
			return s
		}, w.clients, next, func(done int, _ time.Duration) bool { return done >= 25 })
		next = (next + 25) * w.clients
		for _, s := range direct {
			if s.err != nil || s.hash != want {
				complain("a direct Server.Build failed or built another image: %v", s.err)
			}
		}
		inproc := quantile(opSeconds(direct), 0.5)
		last := timed[len(timed)-1]
		snap := st.svc.srv.Snapshot()
		v["slcd.inproc_p50_s"] = inproc
		v["slcd.http_overhead_s"] = p50 - inproc
		v["slcd.request_bytes"] = float64(last.sent)
		v["slcd.response_bytes"] = float64(last.received)
		v["slcd.flight_execs"] = float64(snap.FlightExecs)
		v["slcd.flight_waits"] = float64(snap.FlightWaits)
		v["slcd.shed"] = float64(snap.Counters["slcd/refused/shed"])
		v["slcd.failures"] = float64(snap.Failures)
		for name, n := range snap.Counters {
			if strings.HasPrefix(name, "cache/remote/") &&
				(strings.HasSuffix(name, "/hits") || strings.HasSuffix(name, "/misses") || strings.HasSuffix(name, "/puts")) {
				v["cache.remote_ops"] += float64(n)
			}
		}
	}

	// Real builds of the op, alone in the process, the median of three each:
	// under the product's own tracer, and with a second CPU. They are compared
	// with the timed ops' median, except on svc-edit, whose timed ops share the
	// CPU between two callers: there the baseline is the same build untraced.
	var res *pipeline.Result
	var tr *obs.Tracer
	solo := func(workers int, traced bool) (float64, error) {
		var ds []time.Duration
		for i := 0; i < 3; i++ {
			next++
			tr = nil
			if traced {
				tr = obs.New()
			}
			var d time.Duration
			var err error
			if res, d, err = st.build(next, workers, tr); err != nil {
				return 0, err
			}
			ds = append(ds, d)
		}
		return quantile(seconds(ds), 0.5), nil
	}
	base := p50
	if st.svc != nil {
		if base, err = solo(serial, false); err != nil {
			return nil, false, fmt.Errorf("in-process build: %w", err)
		}
	}
	procs := min(2, runtime.NumCPU())
	prev := runtime.GOMAXPROCS(procs)
	parallel, err := solo(procs, false)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, false, fmt.Errorf("parallel build: %w", err)
	}
	v["par.speedup_j2"] = ratio(base, parallel)
	traced, err := solo(serial, true)
	if err != nil {
		return nil, false, fmt.Errorf("traced build: %w", err)
	}
	v["pipeline.trace_overhead_pct"] = 100 * ratio(traced-base, base)
	if hash, err := listingHash(res); err != nil {
		return nil, false, err
	} else if hash != want {
		complain("the build under an obs tracer produced image %s, untraced ops %s", short(hash), short(want))
	}
	// What the layout pass was given: the same program before the reorder,
	// scored against the profile the build was fed.
	v["layout.cross_page_pct_before"], v["layout.touched_pages_before"] = 0, 0
	if res.PreLayoutImage != nil {
		before := perf.PageTouch(res.PreLayoutImage, st.cfg.Profile, device)
		v["layout.cross_page_pct_before"] = 100 * before.CrossRatio()
		v["layout.touched_pages_before"] = float64(before.TouchedPages)
	}
	for metric, stage := range map[string]string{
		"pipeline.frontend_s": "frontend+permodule", "pipeline.link_s": "llvm-link",
		"pipeline.opt_s": "opt", "pipeline.llc_s": "llc", "pipeline.outline_s": "machine-outline",
		"pipeline.layout_s": "layout", "pipeline.ld_s": "ld",
	} {
		v[metric] = res.Timings[stage].Seconds()
	}
	v["cache.hit_pct"] = 100 * ratio(float64(tr.Counter("cache/hits")), float64(tr.Counter("cache/probes")))
	v["cache.llir_misses"] = float64(tr.Counter("cache/llir/misses"))
	v["cache.machine_misses"] = float64(tr.Counter("cache/machine/misses"))

	// One interface edit against a primed cache: the same keys used the other
	// way round, every importer's llir entry must miss.
	ifaceDir, err := st.env.tempDir("iface")
	if err != nil {
		return nil, false, err
	}
	defer removeCacheDir(ifaceDir)
	cfg := st.cfg
	cfg.CacheDir = ifaceDir
	cfg.Parallelism = serial
	if _, _, err := st.buildWith(st.c.mods, cfg); err != nil {
		return nil, false, fmt.Errorf("priming build for the interface edit: %w", err)
	}
	cfg.Tracer = obs.New()
	target := st.c.mods[len(st.c.mods)/2].Name
	_, ifaceWall, err := st.buildWith(appgen.EditInterface(st.c.mods, target, "bench"), cfg)
	if err != nil {
		return nil, false, fmt.Errorf("interface-edit build: %w", err)
	}
	v["pipeline.iface_edit_s"] = ifaceWall.Seconds()
	v["cache.iface_edit_llir_misses"] = float64(cfg.Tracer.Counter("cache/llir/misses"))
	return v, ok, nil
}
