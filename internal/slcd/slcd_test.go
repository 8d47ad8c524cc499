package slcd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/cache"
	"outliner/internal/slcd"
)

// soakApp generates the small deterministic app the daemon tests build.
func soakApp(t *testing.T, modules int) []slcd.ModuleSource {
	t.Helper()
	profile := appgen.UberRider
	mods := appgen.Generate(profile, appgen.ScaleForModules(profile, modules))
	out := make([]slcd.ModuleSource, len(mods))
	for i, m := range mods {
		out[i] = slcd.ModuleSource{Name: m.Name, Files: m.Files}
	}
	return out
}

// testConfig is the request config the daemon tests use: the default build,
// trimmed to two outlining rounds so soaks stay fast.
func testConfig() slcd.BuildConfig {
	cfg := slcd.DefaultConfig()
	cfg.OutlineRounds = 2
	return cfg
}

// editBody returns a copy of the app with a comment appended to one module's
// source — new llir cache key, byte-identical image (comments compile to
// nothing), which is what makes it the perfect near-identical request.
func editBody(app []slcd.ModuleSource, idx int, tag string) []slcd.ModuleSource {
	out := make([]slcd.ModuleSource, len(app))
	copy(out, app)
	m := out[idx]
	files := make(map[string]string, len(m.Files))
	for name, text := range m.Files {
		files[name] = text + "\n// edit " + tag + "\n"
	}
	out[idx] = slcd.ModuleSource{Name: m.Name, Files: files}
	return out
}

// referenceListing builds the app serially on a fresh daemon (cold private
// cache, no concurrency) and returns its listing — the byte-identity oracle.
func referenceListing(t *testing.T, app []slcd.ModuleSource) string {
	t.Helper()
	srv := slcd.NewServer(slcd.Options{CacheDir: t.TempDir(), Parallelism: 1, MaxBuilds: 1})
	resp := srv.Build(&slcd.BuildRequest{Modules: app, Config: testConfig()})
	if !resp.OK {
		t.Fatalf("reference build failed (%s): %s", resp.ErrorClass, resp.Error)
	}
	return resp.Listing
}

// TestServerDedupesConcurrentRequests is the race suite's core: N goroutine
// clients posting identical requests against a cold daemon. Every response
// must be byte-identical to a serial build, and the single-flight layer must
// have executed each stage key exactly once — total flight computes across
// all responses equals the number of unique stage keys, so duplicate stage
// executions are zero by construction. A second wave mixes warm identical
// requests with near-identical (body-edited) ones, whose only new key is the
// edited module's llir entry. Run under -race, this is also the data-race
// sweep over the daemon's shared flight, cache, and counter state.
func TestServerDedupesConcurrentRequests(t *testing.T) {
	app := soakApp(t, 6)
	modules := len(app) // the generator has a floor; trust the actual count
	ref := referenceListing(t, app)
	srv := slcd.NewServer(slcd.Options{CacheDir: t.TempDir(), Parallelism: 2, MaxBuilds: 8})

	wave := func(reqs []*slcd.BuildRequest) []*slcd.BuildResponse {
		resps := make([]*slcd.BuildResponse, len(reqs))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range reqs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resps[i] = srv.Build(reqs[i])
			}(i)
		}
		close(start)
		wg.Wait()
		return resps
	}
	sum := func(resps []*slcd.BuildResponse, counter string) int64 {
		var n int64
		for _, r := range resps {
			n += r.Counters[counter]
		}
		return n
	}

	// Wave 1: eight identical requests against a cold cache.
	reqs := make([]*slcd.BuildRequest, 8)
	for i := range reqs {
		reqs[i] = &slcd.BuildRequest{Modules: app, Config: testConfig()}
	}
	resps := wave(reqs)
	for i, r := range resps {
		if !r.OK {
			t.Fatalf("wave 1 request %d failed (%s): %s", i, r.ErrorClass, r.Error)
		}
		if r.Listing != ref {
			t.Fatalf("wave 1 request %d listing differs from the serial build", i)
		}
	}
	// The strict dedupe equation: each of the app's stage keys (one iface, one
	// llir and one machine entry per module) was computed exactly once across
	// all eight concurrent requests.
	if got := sum(resps, "flight/iface/computes"); got != int64(modules) {
		t.Fatalf("iface stage computes = %d across wave 1, want exactly %d (one per module)", got, modules)
	}
	if got := sum(resps, "flight/llir/computes"); got != int64(modules) {
		t.Fatalf("llir stage computes = %d across wave 1, want exactly %d (one per module)", got, modules)
	}
	if got := sum(resps, "flight/machine/computes"); got != int64(modules) {
		t.Fatalf("machine stage computes = %d across wave 1, want exactly %d (one per module)", got, modules)
	}

	// Wave 2: four warm identical requests plus four near-identical ones
	// (distinct body edits). A body edit changes only the edited module's
	// iface and llir keys — the comment compiles to nothing, so the stub, the
	// lowered LLIR, the machine key, and the image all stay identical.
	reqs = reqs[:0]
	for i := 0; i < 4; i++ {
		reqs = append(reqs, &slcd.BuildRequest{Modules: app, Config: testConfig()})
	}
	const edits = 4
	for i := 0; i < edits; i++ {
		reqs = append(reqs, &slcd.BuildRequest{
			Modules: editBody(app, i%modules, fmt.Sprintf("tag%d", i)),
			Config:  testConfig(),
		})
	}
	resps = wave(reqs)
	for i, r := range resps {
		if !r.OK {
			t.Fatalf("wave 2 request %d failed (%s): %s", i, r.ErrorClass, r.Error)
		}
		if r.Listing != ref {
			t.Fatalf("wave 2 request %d listing differs from the serial build", i)
		}
	}
	if got := sum(resps, "flight/iface/computes"); got != edits {
		t.Fatalf("iface stage computes = %d across wave 2, want exactly %d (one per distinct edit)", got, edits)
	}
	if got := sum(resps, "flight/llir/computes"); got != edits {
		t.Fatalf("llir stage computes = %d across wave 2, want exactly %d (one per distinct edit)", got, edits)
	}
	if got := sum(resps, "flight/machine/computes"); got != 0 {
		t.Fatalf("machine stage computes = %d across wave 2, want 0 (machine keys unchanged by comment edits)", got)
	}

	// The daemon aggregates mirror the per-response counters.
	stats := srv.Snapshot()
	if stats.Builds != 16 || stats.Failures != 0 {
		t.Fatalf("daemon stats = %d builds, %d failures; want 16, 0", stats.Builds, stats.Failures)
	}
	if got := stats.Counters["flight/computes"]; got != int64(3*modules+2*edits) {
		t.Fatalf("aggregated flight/computes = %d, want %d", got, 3*modules+2*edits)
	}
}

// TestServerRejectsBadRequests covers the HTTP surface's error paths.
func TestServerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(slcd.NewServer(slcd.Options{}).Handler())
	defer srv.Close()

	get := func(path string) int {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := get("/build"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /build = %d", code)
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/build", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("bad JSON = %d", code)
	}
	if code := post(`{"modules":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty modules = %d", code)
	}
	if code := post(`{"modules":[{"name":"m","files":{"m.sl":"func main() -> Int { return 0 }"}},{"name":"m2","files":{"m2.sl":"func two() -> Int { return 2 }"}}],"config":{"on_verify_failure":"no-such-mode"}}`); code != http.StatusOK {
		t.Fatalf("invalid config mode = %d (failures are structured responses, not transport errors)", code)
	}
}

// revivableShard is a shard server on a real listener whose address survives
// a kill: Close tears down the listener mid-soak, Revive re-listens on the
// same port with the same store — the shard "coming back".
type revivableShard struct {
	store *cache.ShardStore
	addr  string
	mu    sync.Mutex
	srv   *http.Server
}

func newRevivableShard(t *testing.T) *revivableShard {
	t.Helper()
	store, err := cache.OpenShard(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &revivableShard{store: store, addr: ln.Addr().String()}
	s.serve(ln)
	t.Cleanup(s.Kill)
	return s
}

func (s *revivableShard) serve(ln net.Listener) {
	srv := &http.Server{Handler: cache.NewShardServer(s.store)}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	go srv.Serve(ln)
}

func (s *revivableShard) URL() string { return "http://" + s.addr }

// Kill closes the listener and every open connection; clients see refused
// connections until Revive.
func (s *revivableShard) Kill() {
	s.mu.Lock()
	srv := s.srv
	s.srv = nil
	s.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Revive re-listens on the shard's original address.
func (s *revivableShard) Revive(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		t.Fatalf("reviving shard on %s: %v", s.addr, err)
	}
	s.serve(ln)
}

// TestShardKillSoak is the service-mode chaos soak: many concurrent builds
// against a live daemon (real HTTP end to end) backed by two remote shards,
// with one shard killed partway through and revived later. The degraded-mode
// contract under test: a dead shard costs misses, never a failed build —
// every clean response must be OK and byte-identical to the serial reference.
// A seeded slice of fault-armed requests rides along (private build path);
// each must either fail with a structured class or produce the identical
// listing, the PR 5 contract surfaced through the service.
//
// SLCD_SOAK_BUILDS overrides the build count (CI's nightly soak raises it).
func TestShardKillSoak(t *testing.T) {
	builds := 60
	if testing.Short() {
		builds = 16
	}
	if s := os.Getenv("SLCD_SOAK_BUILDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SLCD_SOAK_BUILDS=%q: %v", s, err)
		}
		builds = n
	}

	app := soakApp(t, 5)
	modules := len(app)
	ref := referenceListing(t, app)

	stable := newRevivableShard(t)
	victim := newRevivableShard(t)
	daemon := slcd.NewServer(slcd.Options{
		CacheDir:    t.TempDir(),
		ShardURLs:   []string{stable.URL(), victim.URL()},
		Parallelism: 2,
		MaxBuilds:   4,
	})
	hs := httptest.NewServer(daemon.Handler())
	defer hs.Close()

	post := func(req *slcd.BuildRequest) (*slcd.BuildResponse, error) {
		payload, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		resp, err := http.Post(hs.URL+"/build", "application/json", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("daemon returned %d", resp.StatusCode)
		}
		var out slcd.BuildResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		return &out, nil
	}

	// request i: every build edits a seeded module body (new llir keys keep
	// compute flowing through the soak — including while the shard is down);
	// every tenth request is fault-armed and takes the private build path.
	request := func(i int) *slcd.BuildRequest {
		req := &slcd.BuildRequest{
			Modules: editBody(app, i%modules, fmt.Sprintf("soak%d", i/2)),
			Config:  testConfig(),
		}
		if i%10 == 7 {
			req.Config.FaultSeed = uint64(i) + 1
			req.Config.FaultRate = 0.02
		}
		return req
	}

	// The kill/revive schedule keys off completed builds: kill after 1/3,
	// revive after 2/3 — both boundaries land mid-soak under any -j.
	var done atomic.Int64
	killAt, reviveAt := int64(builds/3), int64(2*builds/3)
	var lifecycle sync.Once
	var revival sync.Once

	const workers = 6
	jobs := make(chan int)
	var wg sync.WaitGroup
	errc := make(chan error, builds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				resp, err := post(request(i))
				if err != nil {
					errc <- fmt.Errorf("request %d: transport error: %w", i, err)
				} else if i%10 == 7 {
					// Fault-armed: structured failure or byte-identical image.
					switch {
					case resp.OK && resp.Listing == ref:
					case !resp.OK && (resp.ErrorClass == "panic" || resp.ErrorClass == "verify" || resp.ErrorClass == "injected"):
					default:
						errc <- fmt.Errorf("request %d (faulted): ok=%t class=%q — neither structured failure nor identical image", i, resp.OK, resp.ErrorClass)
					}
				} else {
					// Clean: a dead shard must never cost a build.
					if !resp.OK {
						errc <- fmt.Errorf("request %d failed (%s) — a dead shard degraded into a build failure: %s", i, resp.ErrorClass, resp.Error)
					} else if resp.Listing != ref {
						errc <- fmt.Errorf("request %d listing diverged from the serial reference", i)
					}
				}
				n := done.Add(1)
				if n >= killAt {
					lifecycle.Do(victim.Kill)
				}
				if n >= reviveAt {
					revival.Do(func() { victim.Revive(t) })
				}
			}
		}()
	}
	for i := 0; i < builds; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats := daemon.Snapshot()
	if stats.Builds != int64(builds) {
		t.Fatalf("daemon served %d builds, want %d", stats.Builds, builds)
	}
	// The kill left its fingerprints: shard errors were recorded, and the
	// daemon kept serving through them.
	if stats.Counters["cache/remote/shard0/errors"]+stats.Counters["cache/remote/shard1/errors"] == 0 {
		t.Error("soak recorded no shard errors — the kill window never hit the remote path")
	}
}

// TestFaultArmedRequestsSkipTheRemoteTier: the daemon attaches its remote
// tier to the shared cache handle once, and a fault-armed request builds on a
// private handle without it. It neither publishes to the shard nor is served
// by it — not even after the same request ran on another daemon sharing that
// shard — while a clean request does publish there.
func TestFaultArmedRequestsSkipTheRemoteTier(t *testing.T) {
	store, err := cache.OpenShard(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(cache.NewShardServer(store))
	defer shard.Close()
	app := soakApp(t, 3)
	build := func(cfg slcd.BuildConfig) *slcd.BuildResponse {
		srv := slcd.NewServer(slcd.Options{CacheDir: t.TempDir(), ShardURLs: []string{shard.URL}, Parallelism: 1})
		defer srv.Close()
		resp := srv.Build(&slcd.BuildRequest{Modules: app, Config: cfg})
		if !resp.OK {
			t.Fatalf("build failed (%s): %s", resp.ErrorClass, resp.Error)
		}
		return resp
	}

	armed := testConfig()
	armed.FaultSeed, armed.FaultRate = 1, 1e-12 // armed, and in practice never firing
	for i := 0; i < 2; i++ {
		resp := build(armed)
		if resp.Counters["cache/stores"] == 0 {
			t.Fatal("the armed request stored nothing, so the check below proves nothing")
		}
		for name, n := range resp.Counters {
			if strings.HasPrefix(name, "cache/tier/remote-shard-") && n > 0 {
				t.Errorf("armed request %d was served by the remote tier: %s = %d", i, name, n)
			}
		}
		if n := store.Len(); n != 0 {
			t.Fatalf("armed request %d published %d entries to the remote shard", i, n)
		}
	}
	build(testConfig())
	if store.Len() == 0 {
		t.Fatal("a clean request published nothing to the remote shard")
	}
}
