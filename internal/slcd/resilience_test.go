package slcd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"outliner/internal/slcd"
)

// TestRequestTimeoutDeadlineClass: a request-level timeout_ms that expires
// mid-build cancels the pipeline and classifies the failure "deadline" — the
// structured answer a client's retry logic keys on.
func TestRequestTimeoutDeadlineClass(t *testing.T) {
	srv := slcd.NewServer(slcd.Options{CacheDir: t.TempDir(), Parallelism: 1})
	defer srv.Close()
	req := &slcd.BuildRequest{Modules: soakApp(t, 5), Config: testConfig()}
	req.Config.TimeoutMS = 1
	resp := srv.Build(req)
	if resp.OK || resp.ErrorClass != "deadline" {
		t.Fatalf("1ms build: ok=%t class=%q error=%q, want a deadline failure", resp.OK, resp.ErrorClass, resp.Error)
	}
	// The timed-out build published nothing: re-requesting with no timeout
	// over the same cache directory is byte-identical to a cold reference.
	req.Config.TimeoutMS = 0
	clean := srv.Build(req)
	if !clean.OK {
		t.Fatalf("clean build after the timeout failed (%s): %s", clean.ErrorClass, clean.Error)
	}
	if ref := referenceListing(t, req.Modules); clean.Listing != ref {
		t.Fatal("build over the timed-out build's cache directory diverged from the reference")
	}
}

// TestDrainOverHTTP covers the shutdown protocol's HTTP surface: /healthz
// flips to 503 "draining" (so load balancers stop routing), and POST /build
// answers 503 + Retry-After with a structured "drain" body that a retry
// script can parse.
func TestDrainOverHTTP(t *testing.T) {
	daemon := slcd.NewServer(slcd.Options{CacheDir: t.TempDir()})
	defer daemon.Close()
	hs := httptest.NewServer(daemon.Handler())
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain = %d", resp.StatusCode)
	}

	daemon.StartDrain()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz carries no Retry-After")
	}

	payload, err := json.Marshal(&slcd.BuildRequest{Modules: soakApp(t, 5), Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hs.URL+"/build", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /build during drain = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain refusal carries no Retry-After")
	}
	var out slcd.BuildResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("drain refusal body is not a BuildResponse: %v", err)
	}
	if out.OK || out.ErrorClass != "drain" {
		t.Fatalf("drain refusal body: ok=%t class=%q, want structured drain", out.OK, out.ErrorClass)
	}
}

// TestFarmResilienceSoak is the extended chaos soak the resilience work is
// judged by: concurrent clients against a daemon whose only remote shard dies
// mid-wave and whose operator begins draining while the wave is still in
// flight, followed by a "restart" — a second daemon over the same cache
// directory and a revived shard. The contract:
//
//   - every response is either OK with the byte-identical reference listing
//     or a structured failure class (shed/drain/canceled/deadline/aborted,
//     or the chaos classes panic/verify/injected for fault-armed riders);
//   - the dead shard opens its circuit breaker, and after revival the
//     breaker completes the open → half-open → closed cycle, visible in the
//     daemon's stats counters;
//   - re-requesting the app after the restart is byte-identical — neither
//     the drain's cancellations nor the dead-shard window poisoned the cache.
func TestFarmResilienceSoak(t *testing.T) {
	app := soakApp(t, 5)
	modules := len(app)
	ref := referenceListing(t, app)
	shard := newRevivableShard(t)
	opts := slcd.Options{
		CacheDir:         t.TempDir(),
		ShardURLs:        []string{shard.URL()},
		Parallelism:      2,
		MaxBuilds:        3,
		MaxQueue:         64,
		RemoteTimeout:    500 * time.Millisecond,
		BreakerThreshold: 2,
	}
	structured := map[string]bool{
		"shed": true, "drain": true, "canceled": true, "deadline": true,
		"aborted": true, "panic": true, "verify": true, "injected": true,
	}
	edited := func(tag string, i int) *slcd.BuildRequest {
		return &slcd.BuildRequest{
			Modules: editBody(app, i%modules, fmt.Sprintf("%s%d", tag, i)),
			Config:  testConfig(),
		}
	}

	daemon := slcd.NewServer(opts)

	// Phase 1: warm the farm while the shard is healthy.
	for i := 0; i < 2; i++ {
		resp := daemon.Build(&slcd.BuildRequest{Modules: app, Config: testConfig()})
		if !resp.OK || resp.Listing != ref {
			t.Fatalf("warm build %d: ok=%t class=%q", i, resp.OK, resp.ErrorClass)
		}
	}

	// Phase 2: kill the shard and run a concurrent wave of near-identical
	// requests — each edit mints a new llir key, forcing remote traffic into
	// the dead shard so the breaker trips under real load. Chaos riders with
	// request-level fault injection come along, and the operator begins
	// draining halfway through the wave.
	shard.Kill()
	const wave = 12
	resps := make([]*slcd.BuildResponse, wave)
	var wg sync.WaitGroup
	var completed atomic.Int64
	var drainOnce sync.Once
	for i := 0; i < wave; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := edited("wave", i)
			if i%6 == 5 {
				req.Config.FaultSeed = uint64(i) + 1
				req.Config.FaultRate = 0.02
			}
			resps[i] = daemon.Build(req)
			if completed.Add(1) == wave/2 {
				drainOnce.Do(daemon.StartDrain)
			}
		}(i)
	}
	wg.Wait()
	for i, r := range resps {
		switch {
		case r.OK && r.Listing == ref:
		case !r.OK && structured[r.ErrorClass]:
		default:
			t.Errorf("wave request %d: ok=%t class=%q — neither identical image nor structured failure: %s",
				i, r.OK, r.ErrorClass, r.Error)
		}
	}
	// The draining daemon refuses new work with the structured drain class.
	for i := 0; i < 2; i++ {
		if r := daemon.Build(edited("late", i)); r.ErrorClass != "drain" {
			t.Fatalf("post-drain request %d: class %q, want drain", i, r.ErrorClass)
		}
	}
	if !daemon.Drain(30 * time.Second) {
		t.Fatal("in-flight wave builds did not finish inside the drain window")
	}
	st := daemon.Snapshot()
	if st.State != "draining" {
		t.Fatalf("drained daemon state = %q", st.State)
	}
	if st.Counters["cache/remote/shard0/breaker_opens"] == 0 {
		t.Error("the dead shard never opened its breaker during the wave")
	}
	if st.Counters["slcd/refused/drain"] < 2 {
		t.Errorf("slcd/refused/drain = %d, want >= 2", st.Counters["slcd/refused/drain"])
	}
	daemon.Close()

	// Phase 3: the shard comes back and a restarted daemon takes over the
	// same cache directory. The first re-request must be byte-identical —
	// nothing the cancelled or degraded builds did is observable.
	shard.Revive(t)
	daemon2 := slcd.NewServer(opts)
	defer daemon2.Close()
	resp := daemon2.Build(&slcd.BuildRequest{Modules: app, Config: testConfig()})
	if !resp.OK || resp.Listing != ref {
		t.Fatalf("post-restart build: ok=%t class=%q — restart is not transparent: %s", resp.OK, resp.ErrorClass, resp.Error)
	}

	// Phase 4: flap the shard under the restarted daemon and watch the
	// breaker complete a full cycle in the stats counters. Builds keep
	// succeeding throughout — breaker transitions are degradation, never
	// failure.
	shard.Kill()
	opened := false
	for i := 0; i < 20 && !opened; i++ {
		if r := daemon2.Build(edited("flap", i)); !r.OK || r.Listing != ref {
			t.Fatalf("flap build %d failed (%s): %s", i, r.ErrorClass, r.Error)
		}
		opened = daemon2.Snapshot().Counters["cache/remote/shard0/breaker_opens"] > 0
	}
	if !opened {
		t.Fatal("breaker failed to open against the killed shard")
	}
	shard.Revive(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if r := daemon2.Build(edited("heal", int(time.Until(deadline)))); !r.OK || r.Listing != ref {
			t.Fatalf("heal-phase build failed (%s): %s", r.ErrorClass, r.Error)
		}
		c := daemon2.Snapshot().Counters
		if c["cache/remote/shard0/breaker_closes"] > 0 {
			if c["cache/remote/shard0/breaker_probes"] == 0 {
				t.Error("breaker closed without a recorded probe")
			}
			if c["cache/remote/shard0/breaker_half_opens"] == 0 {
				t.Error("breaker closed without passing through half-open")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed after shard revival; counters: opens=%d half_opens=%d probes=%d",
				c["cache/remote/shard0/breaker_opens"], c["cache/remote/shard0/breaker_half_opens"],
				c["cache/remote/shard0/breaker_probes"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The recovered farm serves the reference image through the revived shard.
	final := daemon2.Build(&slcd.BuildRequest{Modules: app, Config: testConfig()})
	if !final.OK || final.Listing != ref {
		t.Fatalf("final build after recovery: ok=%t class=%q", final.OK, final.ErrorClass)
	}
}
