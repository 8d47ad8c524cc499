package cache

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// breakerFixture is one Remote over a single togglable shard: while down, the
// shard answers 500 to everything (a sick server, not a dead listener), which
// exercises the same consecutive-failure path a hung or dying shard does.
type breakerFixture struct {
	remote *Remote
	store  *ShardStore
	down   atomic.Bool
}

func newBreakerFixture(t *testing.T, opts RemoteOptions) *breakerFixture {
	t.Helper()
	fx := &breakerFixture{}
	store, err := OpenShard(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	fx.store = store
	inner := NewShardServer(store)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fx.down.Load() {
			http.Error(w, "shard sick", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	fx.remote = NewRemoteWith([]string{srv.URL}, opts)
	fx.remote.sleep = func(time.Duration) {}
	t.Cleanup(fx.remote.Close)
	return fx
}

// TestBreakerOpensAfterConsecutiveFailures: each failed operation (after its
// internal retries) counts one strike; at the threshold the breaker opens and
// subsequent operations are shed instantly — no HTTP attempt, no retries,
// RemoteErr = ErrShardOpen.
func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	// ProbeInterval an hour out: recovery is driven explicitly, never by the
	// background prober racing the assertions.
	fx := newBreakerFixture(t, RemoteOptions{BreakerThreshold: 3, ProbeInterval: time.Hour})
	fx.down.Store(true)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if snap := fx.remote.Breaker(0); snap.State != BreakerClosed {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i)
		}
		_, _, ok, pr := fx.remote.get(ctx, "entry")
		if ok || pr.RemoteErr == nil {
			t.Fatalf("op %d against a sick shard: ok=%t err=%v", i, ok, pr.RemoteErr)
		}
		if errors.Is(pr.RemoteErr, ErrShardOpen) {
			t.Fatalf("op %d was shed before the threshold", i)
		}
	}
	snap := fx.remote.Breaker(0)
	if snap.State != BreakerOpen || snap.Opens != 1 {
		t.Fatalf("after 3 failures: state=%s opens=%d, want open/1", snap.State, snap.Opens)
	}

	// Shed path: instant, structured, no retries.
	_, _, ok, pr := fx.remote.get(ctx, "entry")
	if ok || !errors.Is(pr.RemoteErr, ErrShardOpen) {
		t.Fatalf("open breaker did not shed: ok=%t err=%v", ok, pr.RemoteErr)
	}
	if pr.Retries != 0 {
		t.Fatalf("shed operation recorded %d retries, want 0 (the shard was never contacted)", pr.Retries)
	}
	if ppr := fx.remote.put(ctx, "entry2", [][]byte{[]byte("x")}); !errors.Is(ppr.RemoteErr, ErrShardOpen) {
		t.Fatalf("open breaker did not shed the put: %v", ppr.RemoteErr)
	}
	if snap := fx.remote.Breaker(0); snap.Shed < 2 {
		t.Fatalf("shed counter = %d, want >= 2", snap.Shed)
	}
}

// TestBreakerRecoversViaProbe: an open breaker stays open while the shard is
// sick (half-open probe fails) and closes once the shard answers again; the
// transition counters record every step and traffic flows after re-close.
func TestBreakerRecoversViaProbe(t *testing.T) {
	fx := newBreakerFixture(t, RemoteOptions{BreakerThreshold: 2, ProbeInterval: time.Hour})
	ctx := context.Background()

	// Publish while healthy so there is an entry to hit after recovery. The
	// shard validates ids and the entry framing, so use the real encodings.
	id := remoteKey("survivor").id()
	if pr := fx.remote.put(ctx, id, frameEntry([]byte("payload"))); pr.RemoteErr != nil {
		t.Fatal(pr.RemoteErr)
	}

	fx.down.Store(true)
	for i := 0; i < 2; i++ {
		fx.remote.get(ctx, id)
	}
	if snap := fx.remote.Breaker(0); snap.State != BreakerOpen {
		t.Fatalf("state after threshold failures = %s", snap.State)
	}

	// Probe while still sick: half-open, probe fails, re-open.
	fx.remote.ProbeNow()
	snap := fx.remote.Breaker(0)
	if snap.State != BreakerOpen || snap.HalfOpens != 1 || snap.Probes != 1 || snap.Closes != 0 {
		t.Fatalf("failed probe: state=%s halfOpens=%d probes=%d closes=%d", snap.State, snap.HalfOpens, snap.Probes, snap.Closes)
	}

	// Shard heals; the next probe re-admits it.
	fx.down.Store(false)
	fx.remote.ProbeNow()
	snap = fx.remote.Breaker(0)
	if snap.State != BreakerClosed || snap.Closes != 1 {
		t.Fatalf("successful probe: state=%s closes=%d", snap.State, snap.Closes)
	}
	raw, _, ok, pr := fx.remote.get(ctx, id)
	if !ok || pr.RemoteErr != nil {
		t.Fatalf("get after recovery: ok=%t err=%v", ok, pr.RemoteErr)
	}
	if len(raw) == 0 {
		t.Fatal("recovered get returned no bytes")
	}
}

// TestBreakerBackgroundProberRecloses: the prober goroutine (started lazily
// on the first open) re-closes the breaker without any caller intervention.
func TestBreakerBackgroundProberRecloses(t *testing.T) {
	fx := newBreakerFixture(t, RemoteOptions{BreakerThreshold: 2, ProbeInterval: 5 * time.Millisecond})
	ctx := context.Background()
	fx.down.Store(true)
	for i := 0; i < 2; i++ {
		fx.remote.get(ctx, "k")
	}
	if snap := fx.remote.Breaker(0); snap.State != BreakerOpen {
		t.Fatalf("state = %s, want open", snap.State)
	}
	fx.down.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if fx.remote.Breaker(0).State == BreakerClosed {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("background prober never re-closed the breaker: %+v", fx.remote.Breaker(0))
}

// TestBreakerIgnoresContextCancellation: an operation that fails because the
// caller's context was cancelled says nothing about the shard's health and
// must not count toward opening the breaker.
func TestBreakerIgnoresContextCancellation(t *testing.T) {
	fx := newBreakerFixture(t, RemoteOptions{BreakerThreshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 6; i++ {
		_, _, ok, pr := fx.remote.get(ctx, "entry")
		if ok {
			t.Fatal("cancelled get reported a hit")
		}
		if pr.RemoteErr == nil {
			t.Fatal("cancelled get reported no error")
		}
	}
	if snap := fx.remote.Breaker(0); snap.State != BreakerClosed || snap.Opens != 0 {
		t.Fatalf("cancelled operations moved the breaker: %+v", snap)
	}
}

// TestBreakerCountersSurface: the breaker gauges and transition counters
// appear in Counters(), which reads them live: the state gauge follows the
// breaker through a recovery, and the transition totals only grow.
func TestBreakerCountersSurface(t *testing.T) {
	fx := newBreakerFixture(t, RemoteOptions{BreakerThreshold: 1, ProbeInterval: time.Hour})
	fx.down.Store(true)
	fx.remote.get(context.Background(), "entry")

	snap := fx.remote.Counters()
	if snap["cache/remote/shard0/breaker_state"] != int64(BreakerOpen) {
		t.Fatalf("breaker_state gauge = %d, want %d (open)", snap["cache/remote/shard0/breaker_state"], BreakerOpen)
	}
	if snap["cache/remote/shard0/breaker_opens"] != 1 {
		t.Fatalf("breaker_opens = %d", snap["cache/remote/shard0/breaker_opens"])
	}

	fx.down.Store(false)
	fx.remote.ProbeNow()
	snap = fx.remote.Counters()
	if snap["cache/remote/shard0/breaker_state"] != int64(BreakerClosed) || snap["cache/remote/shard0/breaker_closes"] != 1 {
		t.Fatalf("after a successful probe: %v", snap)
	}
	if snap["cache/remote/shard0/breaker_opens"] != 1 {
		t.Fatalf("breaker_opens = %d after recovery, want the lifetime total 1", snap["cache/remote/shard0/breaker_opens"])
	}
}

// TestRemoteTimeoutConfigurable: the satellite contract — the once-hardcoded
// per-operation timeout is an option, defaulted when zero, surfaced by
// Timeout(), and nil remotes report 0.
func TestRemoteTimeoutConfigurable(t *testing.T) {
	if d := NewRemoteWith([]string{"http://a"}, RemoteOptions{}).Timeout(); d != defaultRemoteTimeout {
		t.Fatalf("default timeout = %v, want %v", d, defaultRemoteTimeout)
	}
	r := NewRemoteWith([]string{"http://a"}, RemoteOptions{Timeout: 123 * time.Millisecond})
	if d := r.Timeout(); d != 123*time.Millisecond {
		t.Fatalf("configured timeout = %v", d)
	}
	if r.client.Timeout != 123*time.Millisecond {
		t.Fatalf("http client timeout = %v, option not applied", r.client.Timeout)
	}
	var nilRemote *Remote
	if d := nilRemote.Timeout(); d != 0 {
		t.Fatalf("nil remote timeout = %v", d)
	}
}

// TestFlightCancelledLeaderAbortsWaiters: a leader whose fn fails with a
// context error keeps that error for itself, while every waiter receives
// ErrFlightAborted — the structured "recompute by re-requesting" signal — and
// never inherits a cancellation that was not theirs.
func TestFlightCancelledLeaderAbortsWaiters(t *testing.T) {
	f := newFlight()
	k := flightKey(404)
	entered := make(chan struct{})
	release := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = f.Do(k, func() ([]byte, error) {
			close(entered)
			<-release
			return nil, context.Canceled
		})
	}()
	<-entered

	// Wait until the waiter is registered before releasing the leader.
	waiterReady := make(chan struct{})
	var waiterErr error
	var waiterShared bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(waiterReady)
		_, waiterShared, waiterErr = f.Do(k, func() ([]byte, error) {
			t.Error("waiter executed fn; it should have waited on the leader")
			return nil, nil
		})
	}()
	<-waiterReady
	for {
		if _, waits := f.Stats(); waits == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader error = %v, want its own context.Canceled", leaderErr)
	}
	if !waiterShared || !errors.Is(waiterErr, ErrFlightAborted) {
		t.Fatalf("waiter: shared=%t err=%v, want shared ErrFlightAborted", waiterShared, waiterErr)
	}

	// The call was forgotten: a fresh Do executes again (errors never sticky).
	data, shared, err := f.Do(k, func() ([]byte, error) { return []byte("fresh"), nil })
	if err != nil || shared || string(data) != "fresh" {
		t.Fatalf("post-abort Do = %q, shared=%t, err=%v; want a fresh leader execution", data, shared, err)
	}
}
