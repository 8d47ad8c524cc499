package main

import (
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"outliner/internal/exec"
	"outliner/internal/perf"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
)

// options are one run's inputs.
type options struct {
	workload   string
	seed       int64
	corpusSeed int64
	seconds    float64
	ops        int // > 0: this many timed ops per client in place of seconds
	modules    int // > 0: corpus size in place of the workload's own
	trace      bool
	out        string // directory for traces and scratch files
}

// The timed ops run serially on one CPU: GOMAXPROCS 1, Parallelism 1, so a
// build's wall time is the work it does. On the two-vCPU box this was sized
// for, the share of the second vCPU the host grants changes by the minute, and
// a two-worker build's time follows it (README.md, "Why one CPU"). What the
// second CPU buys is a per-layer metric, par.speedup_j2.
const serial = 1

// setupBudget is how long repeated set-ups go on: at least three are run, a
// cheaper set-up repeats until this much time has gone, and the median is
// reported. A 10 ms set-up run three times in a process's first 30 ms
// measures the process warming up.
const setupBudget = time.Second

// runWorkload performs one run and returns the row it prints.
func runWorkload(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(serial))
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	stopSignals := removeOnSignal(scratch)
	defer stopSignals()

	e := &env{modules: w.modules, corpusSeed: o.corpusSeed, seed: o.seed, scratch: scratch}
	if o.modules > 0 {
		e.modules = o.modules
	}
	// -ops asks for a short run of fixed length: one discarded op, three set-ups.
	warmup, budget := w.warmup, setupBudget
	if o.ops > 0 {
		warmup, budget = 1, 0
	}

	var st *state
	var setups []time.Duration
	for total := time.Duration(0); ; {
		runtime.GC()
		start := time.Now()
		s, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		d := time.Since(start)
		setups = append(setups, d)
		total += d
		if len(setups) >= 3 && total >= budget {
			st = s
			break
		}
		s.close()
	}
	defer st.close()

	// Warm-up ops are discarded from the timings but not from the checks.
	warm := runOps(st.op, w.clients, 0, func(done int, _ time.Duration) bool { return done >= warmup })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	timed := runOps(st.op, w.clients, warmup, func(done int, elapsed time.Duration) bool {
		if o.ops > 0 {
			return done >= o.ops
		}
		return elapsed.Seconds() >= o.seconds
	})
	runtime.ReadMemStats(&after)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Every op, discarded or timed, must succeed and produce one image.
	want := st.baseHash
	if want == "" {
		want = warm[0].hash
	}
	failed := 0
	var firstErr error
	for _, s := range append(warm[:len(warm):len(warm)], timed...) {
		err := s.err
		if err == nil && s.hash != want {
			err = fmt.Errorf("an op built image %s, expected %s", short(s.hash), short(want))
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d ops failed, first: %v\n", w.name, failed, len(warm)+len(timed), firstErr)
		return &result{Attempted: len(warm) + len(timed), Failed: failed, Metrics: map[string]metric{}}, nil
	}

	final, err := st.finalResult(want)
	if err != nil {
		return nil, err
	}
	expected, source, err := st.c.expectedOutput()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %d timed ops, corpus %s, reference output from %s\n", w.name, len(timed), st.c.name, source)

	res := &result{Correct: true, Attempted: len(warm) + len(timed)}
	if !o.trace {
		ex, err := execute(final)
		if err != nil {
			return nil, err
		}
		if ex.output != expected {
			fmt.Fprintf(os.Stderr, "benchmark: %s: program printed %q, reference (%s) is %q\n", w.name, ex.output, source, expected)
			res.Correct = false
		}
		durs := opSeconds(timed)
		last := timed[len(timed)-1]
		v := values{
			"setup_s":             quantile(seconds(setups), 0.5),
			"build_p50_s":         quantile(durs, 0.5),
			"build_tail_s":        quantile(durs, w.tailQ),
			"code_bytes":          float64(last.code),
			"image_bytes":         float64(last.image),
			"alloc_mb_per_build":  float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(timed)),
			"peak_rss_mb":         rss,
			"exec_dyn_insts":      float64(ex.stats.DynamicInsts),
			"exec_sim_cycles":     ex.sim.Cycles,
			"touched_pages_4k":    float64(ex.pages.TouchedPages),
			"cross_page_call_pct": 100 * ex.pages.CrossRatio(),
		}
		res.Metrics, err = v.emit(endToEnd)
		return res, err
	}

	v, ok, err := layerMetrics(st, w, final, want, expected, timed, filepath.Join(o.out, w.name+".trace.json"))
	if err != nil {
		return nil, err
	}
	res.Correct = ok
	res.Metrics, err = v.emit(perLayer)
	return res, err
}

// runOps drives a closed loop: each client issues its next op only after the
// previous one returned. Op numbers start at first*clients and
// are distinct across clients, so no two ops carry the same edit. stop is
// asked after every op with that client's op count and the phase's elapsed
// time.
func runOps(op func(i int) sample, clients, first int, stop func(done int, elapsed time.Duration) bool) []sample {
	start := time.Now()
	perClient := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; !stop(n, time.Since(start)); n++ {
				perClient[c] = append(perClient[c], op((first+n)*clients+c))
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// opSeconds returns the ops' durations in seconds.
func opSeconds(ops []sample) []float64 {
	out := make([]float64, len(ops))
	for i, s := range ops {
		out[i] = s.dur.Seconds()
	}
	return out
}

// finalResult returns the program whose execution the run reports. For the
// build workloads that is the last op's result; for svc-edit it is an
// in-process build of a request, which must reproduce the daemon's listing.
func (st *state) finalResult(want string) (*pipeline.Result, error) {
	if st.svc == nil {
		return st.lastRes, nil
	}
	res, _, err := st.build(0, serial, nil)
	if err != nil {
		return nil, fmt.Errorf("in-process build of a daemon request: %w", err)
	}
	hash, err := listingHash(res)
	if err != nil {
		return nil, err
	}
	if hash != want {
		return nil, fmt.Errorf("in-process build under daemonConfig produced image %s, the daemon %s", short(hash), short(want))
	}
	return res, nil
}

// short abbreviates a listing hash for messages.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// execution is one run of every entry point of a built program.
type execution struct {
	output string
	stats  exec.Stats
	sim    perf.Result
	prof   *profile.Profile
	pages  perf.PageTouchResult
}

// device is the hardware the execution metrics are reported for: the first
// row and column of the paper's Figure 13 grid, a 4 KiB-page iPhone 6s.
var device, deviceOS = perf.Devices[0], perf.OSes[0]

// execute runs main and every span once on one machine, feeding the cycle
// simulator and the profile collector, and scores the image's layout against
// the profile of that same execution.
func execute(res *pipeline.Result) (*execution, error) {
	sim := perf.New(device, deviceOS)
	col := profile.NewCollector()
	stats, out, err := runEntries(res, exec.Options{Trace: sim.Observe, Profile: col})
	if err != nil {
		return nil, err
	}
	ex := &execution{output: out, stats: stats, sim: sim.Finish(), prof: col.Profile()}
	ex.pages = perf.PageTouch(res.Image, ex.prof, device)
	return ex, nil
}

// runEntries executes every entry point and sums the per-entry statistics.
func runEntries(res *pipeline.Result, opts exec.Options) (exec.Stats, string, error) {
	var sum exec.Stats
	m, err := exec.New(res.Prog, opts)
	if err != nil {
		return sum, "", err
	}
	for _, e := range entries() {
		m.ResetStats()
		if _, err := m.Run(e); err != nil {
			return sum, "", fmt.Errorf("running %s: %w", e, err)
		}
		s := m.Stats()
		sum.DynamicInsts += s.DynamicInsts
		sum.OutlinedInsts += s.OutlinedInsts
	}
	return sum, m.Output(), nil
}

// removeOnSignal removes dir and exits when the process is interrupted or
// terminated, so no exit path leaves cache or shard directories behind.
func removeOnSignal(dir string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-ch:
			os.RemoveAll(dir)
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
