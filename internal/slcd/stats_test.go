package slcd

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"outliner/internal/cache"
)

// TestStatsReadRemoteCountersLive: /stats reads the remote tier's counters
// when it is asked, not when a build finishes, so a shard breaker that
// recovers while no build runs shows closed at once.
func TestStatsReadRemoteCountersLive(t *testing.T) {
	store, err := cache.OpenShard(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	inner := cache.NewShardServer(store)
	var down atomic.Bool
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "shard sick", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer shard.Close()
	// The remote tier NewServer would attach, with an hour-long probe
	// interval: only the explicit ProbeNow below recovers the breaker.
	s := NewServer(Options{CacheDir: t.TempDir(), Parallelism: 1})
	s.remote = cache.NewRemoteWith([]string{shard.URL}, cache.RemoteOptions{BreakerThreshold: 1, ProbeInterval: time.Hour})
	s.shared.SetRemote(s.remote)
	defer s.Close()
	stats := func() map[string]int64 {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st Stats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("/stats: %v", err)
		}
		return st.Counters
	}

	down.Store(true)
	if resp := s.Build(tinyRequest()); !resp.OK {
		t.Fatalf("build against a sick shard failed (%s): %s", resp.ErrorClass, resp.Error)
	}
	if c := stats(); c["cache/remote/shard0/breaker_state"] != int64(cache.BreakerOpen) {
		t.Fatalf("breaker_state after the build = %d, want open", c["cache/remote/shard0/breaker_state"])
	}

	down.Store(false)
	s.remote.ProbeNow()
	c := stats()
	if c["cache/remote/shard0/breaker_closes"] < 1 || c["cache/remote/shard0/breaker_state"] != int64(cache.BreakerClosed) {
		t.Fatalf("/stats after the shard recovered: breaker_closes=%d breaker_state=%d, want >= 1 and closed",
			c["cache/remote/shard0/breaker_closes"], c["cache/remote/shard0/breaker_state"])
	}
	if c["cache/probes"] == 0 {
		t.Fatalf("/stats lost the completed build's counters: %v", c)
	}
}
