package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/obs"
	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
	"outliner/internal/slcd"
)

// workload is one row of BENCHMARK.json's workload table. The reasons each
// exists are recorded there and in README.md.
type workload struct {
	name    string
	modules int     // corpus size
	clients int     // closed-loop callers, each waiting for its reply
	warmup  int     // discarded ops per client
	tailQ   float64 // build_tail_s quantile: the highest with >= 10 samples beyond it at the run length in BENCHMARK.json, never below p75
	setup   func(e *env) (*state, error)
}

// bigCorpus and serviceCorpus are the module counts the workloads compile.
// README.md ("Sizing") records why these and not the paper's 476.
// testCorpus is the size benchmark_test.go runs every workload at.
const (
	bigCorpus     = 80
	serviceCorpus = 24
	testCorpus    = 8
)

var workloads = []workload{
	{name: "wp-release", modules: bigCorpus, clients: 1, warmup: 1, tailQ: 0.75, setup: setupRelease},
	{name: "pm-cold", modules: bigCorpus, clients: 1, warmup: 1, tailQ: 0.75, setup: setupCold},
	{name: "pm-edit", modules: bigCorpus, clients: 1, warmup: 5, tailQ: 0.75, setup: setupEdit},
	{name: "svc-edit", modules: serviceCorpus, clients: 2, warmup: 20, tailQ: 0.95, setup: setupService},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// env is what a set-up is given: the sizes and seeds of the run and a
// private scratch directory inside the checkout.
type env struct {
	modules    int
	corpusSeed int64
	seed       int64
	scratch    string
}

func (e *env) tempDir(kind string) (string, error) {
	return os.MkdirTemp(e.scratch, kind+"-")
}

// sample is one timed op as its caller saw it.
type sample struct {
	dur         time.Duration
	hash        string // sha256 of the image listing
	code, image int
	// sent and received are svc-edit's request and reply body sizes.
	sent, received int
	err            error
}

// state is a set-up workload: everything the timed ops need.
type state struct {
	c   *corpus
	env *env
	// cfg is what one in-process op builds under; flavour selects
	// appgen.BuildGenerated (which applies the Objective-C flavour) over
	// pipeline.Build (what the daemon calls).
	cfg     pipeline.Config
	flavour bool
	// prepare does an op's untimed preparation on its config and returns the
	// matching clean-up.
	prepare func(cfg *pipeline.Config) (func(), error)
	// op performs timed op i and measures it from the caller's side.
	op func(i int) sample
	// baseHash, when set, is the listing hash of the unedited corpus built in
	// set-up under cfg; every op must reproduce it.
	baseHash string
	lastRes  *pipeline.Result
	svc      *service
	closers  []func()
}

func (st *state) close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
}

// removeCacheDir is the clean-up of every cache directory the benchmark
// creates: the files and the process-wide memory tier registered for them.
func removeCacheDir(dir string) {
	os.RemoveAll(dir)
	cache.Forget(dir)
}

func noPrepare(*pipeline.Config) (func(), error) { return func() {}, nil }

// build performs op i in-process under the workload's config with the given
// worker count and tracer.
func (st *state) build(i, workers int, tr *obs.Tracer) (*pipeline.Result, time.Duration, error) {
	cfg := st.cfg
	cfg.Parallelism = workers
	cfg.Tracer = tr
	done, err := st.prepare(&cfg)
	if err != nil {
		return nil, 0, err
	}
	defer done()
	return st.buildWith(st.c.edited(i), cfg)
}

// buildWith times one build call. runtime.GC runs before the timer so one
// op's garbage is not collected on the next op's clock.
func (st *state) buildWith(mods []appgen.Module, cfg pipeline.Config) (*pipeline.Result, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	var res *pipeline.Result
	var err error
	if st.flavour {
		res, err = appgen.BuildGenerated(mods, cfg)
	} else {
		res, err = pipeline.Build(sources(mods), cfg)
	}
	return res, time.Since(start), err
}

// buildOp is the timed op of the three build workloads.
func (st *state) buildOp(i int) sample {
	res, dur, err := st.build(i, serial, nil)
	if err != nil {
		return sample{dur: dur, err: err}
	}
	st.lastRes = res
	hash, err := listingHash(res)
	return sample{dur: dur, hash: hash, code: res.CodeSize(), image: res.BinarySize(), err: err}
}

func sources(mods []appgen.Module) []pipeline.Source {
	out := make([]pipeline.Source, len(mods))
	for i, m := range mods {
		out[i] = pipeline.Source{Name: m.Name, Files: m.Files}
	}
	return out
}

func listingHash(res *pipeline.Result) (string, error) {
	h := sha256.New()
	if err := res.WriteImageListing(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func newState(e *env) (*state, error) {
	c, err := generate(e.modules, e.corpusSeed, e.seed)
	if err != nil {
		return nil, err
	}
	st := &state{c: c, env: e, flavour: true, prepare: noPrepare}
	st.op = st.buildOp
	return st, nil
}

// collectProfile runs every entry point of prog under instrumentation.
func collectProfile(res *pipeline.Result) (*profile.Profile, error) {
	col := profile.NewCollector()
	if _, _, err := runEntries(res, exec.Options{Profile: col}); err != nil {
		return nil, err
	}
	return col.Profile(), nil
}

// setupRelease: the paper's shipped pipeline. The profile comes from an
// un-laid-out build of the same configuration, because call-edge keys are
// offsets inside the caller and so depend on its outlined body.
func setupRelease(e *env) (*state, error) {
	st, err := newState(e)
	if err != nil {
		return nil, err
	}
	st.cfg = pipeline.OSize
	st.cfg.Verify = true
	res, _, err := st.build(-1, serial, nil)
	if err != nil {
		return nil, fmt.Errorf("profile build: %w", err)
	}
	if st.cfg.Profile, err = collectProfile(res); err != nil {
		return nil, err
	}
	st.cfg.Layout = layout.C3
	return st, nil
}

// setupCold: every op stores into a directory that did not exist before it.
func setupCold(e *env) (*state, error) {
	st, err := newState(e)
	if err != nil {
		return nil, err
	}
	st.cfg = pipeline.Default
	st.cfg.Verify = true
	st.prepare = func(cfg *pipeline.Config) (func(), error) {
		dir, err := e.tempDir("cold")
		if err != nil {
			return nil, err
		}
		cfg.CacheDir = dir
		return func() { removeCacheDir(dir) }, nil
	}
	return st, nil
}

// setupEdit primes one cache with the unedited corpus. Each op then drops the
// cache's memory tier first, so entries are read from disk as they are by the
// fresh compiler process a developer starts after an edit.
func setupEdit(e *env) (*state, error) {
	st, err := newState(e)
	if err != nil {
		return nil, err
	}
	dir, err := e.tempDir("edit")
	if err != nil {
		return nil, err
	}
	st.closers = append(st.closers, func() { removeCacheDir(dir) })
	st.cfg = pipeline.Default
	st.cfg.Verify = true
	st.cfg.CacheDir = dir
	res, _, err := st.build(-1, serial, nil)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("priming build: %w", err)
	}
	if st.baseHash, err = listingHash(res); err != nil {
		st.close()
		return nil, err
	}
	st.prepare = func(cfg *pipeline.Config) (func(), error) {
		shared, err := cache.Shared(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		shared.DropMemory()
		return func() {}, nil
	}
	return st, nil
}

// service is the farm under svc-edit: a daemon with a local cache directory
// and one healthy remote shard, both behind loopback HTTP in this process.
type service struct {
	srv    *slcd.Server
	url    string
	client *http.Client
}

// daemonConfig is the pipeline.Config slcd derives from DefaultConfig() (its
// lowering is unexported). svc-edit checks the equivalence on every run: an
// in-process build under this config must reproduce the daemon's listing.
func daemonConfig() pipeline.Config {
	d := slcd.DefaultConfig()
	return pipeline.Config{
		OutlineRounds:      d.OutlineRounds,
		MergeFunctions:     d.MergeFunctions,
		Verify:             d.Verify,
		SILOutline:         true,
		SpecializeClosures: true,
		PreserveDataLayout: true,
		SplitGCMetadata:    true,
		OnVerifyFailure:    outline.VerifyAbort,
	}
}

func (st *state) request(i int) *slcd.BuildRequest {
	mods := st.c.edited(i)
	req := &slcd.BuildRequest{Modules: make([]slcd.ModuleSource, len(mods)), Config: slcd.DefaultConfig()}
	for j, m := range mods {
		req.Modules[j] = slcd.ModuleSource{Name: m.Name, Files: m.Files}
	}
	return req
}

func setupService(e *env) (*state, error) {
	st, err := newState(e)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*state, error) {
		st.close()
		return nil, err
	}
	cacheDir, err := e.tempDir("svc-cache")
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, func() { removeCacheDir(cacheDir) })
	shardDir, err := e.tempDir("svc-shard")
	if err != nil {
		return fail(err)
	}
	st.closers = append(st.closers, func() { os.RemoveAll(shardDir) })
	store, err := cache.OpenShard(shardDir, 256<<20)
	if err != nil {
		return fail(err)
	}
	shard := httptest.NewServer(cache.NewShardServer(store))
	st.closers = append(st.closers, shard.Close)
	srv := slcd.NewServer(slcd.Options{CacheDir: cacheDir, ShardURLs: []string{shard.URL}, Parallelism: serial})
	st.closers = append(st.closers, srv.Close)
	front := httptest.NewServer(srv.Handler())
	st.closers = append(st.closers, front.Close)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	st.closers = append(st.closers, client.CloseIdleConnections)
	st.svc = &service{srv: srv, url: front.URL + "/build", client: client}

	st.flavour = false
	st.cfg = daemonConfig()
	st.cfg.CacheDir = cacheDir
	st.op = st.serviceOp

	prime := srv.Build(st.request(-1))
	if !prime.OK {
		return fail(fmt.Errorf("priming request failed (%s): %s", prime.ErrorClass, prime.Error))
	}
	st.baseHash = hashString(prime.Listing)
	return st, nil
}

func hashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// serviceOp is svc-edit's timed op: one POST /build, timed from the send to
// the last byte of the reply. The request is encoded before the clock starts
// and the reply decoded after it stops; both are the client's own work.
func (st *state) serviceOp(i int) sample {
	body, err := json.Marshal(st.request(i))
	if err != nil {
		return sample{err: err}
	}
	start := time.Now()
	resp, err := st.svc.client.Post(st.svc.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{dur: time.Since(start), err: err}
	}
	reply, err := io.ReadAll(resp.Body)
	dur := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return sample{dur: dur, err: err}
	}
	var br slcd.BuildResponse
	if err := json.Unmarshal(reply, &br); err != nil {
		return sample{dur: dur, err: fmt.Errorf("decoding reply (HTTP %d): %w", resp.StatusCode, err)}
	}
	if !br.OK {
		return sample{dur: dur, err: fmt.Errorf("HTTP %d %s: %s", resp.StatusCode, br.ErrorClass, br.Error)}
	}
	return sample{dur: dur, hash: hashString(br.Listing), code: br.CodeSize, image: br.TotalSize,
		sent: len(body), received: len(reply)}
}
