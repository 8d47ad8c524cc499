package cache

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"outliner/internal/fault"
)

// remoteFixture is one Cache wired to n live shard servers, with backoff
// sleeps virtualized so retry paths run at full speed.
type remoteFixture struct {
	c      *Cache
	remote *Remote
	stores []*ShardStore
	srvs   []*httptest.Server
}

func newRemoteFixture(t *testing.T, shards int) *remoteFixture {
	t.Helper()
	fx := &remoteFixture{}
	var urls []string
	for i := 0; i < shards; i++ {
		s, err := OpenShard(t.TempDir(), 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewShardServer(s))
		t.Cleanup(srv.Close)
		fx.stores = append(fx.stores, s)
		fx.srvs = append(fx.srvs, srv)
		urls = append(urls, srv.URL)
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fx.remote = NewRemoteWith(urls, RemoteOptions{})
	fx.remote.sleep = func(time.Duration) {}
	c.SetRemote(fx.remote)
	fx.c = c
	return fx
}

// freshCache returns a second cache over its own directory sharing fx's
// remote tier — "another build machine" in miniature.
func (fx *remoteFixture) freshCache(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.SetRemote(fx.remote)
	return c
}

func remoteKey(s string) Key {
	return Key{Stage: "llir", Input: s, Config: "cfg", Schema: 1}
}

// TestRemotePutThenRemoteHit: a publication replicates to the owning shard,
// and a different machine's probe is served by that shard, attributed via
// Probe.Tier, then promoted locally so the next probe is a local hit.
func TestRemotePutThenRemoteHit(t *testing.T) {
	fx := newRemoteFixture(t, 3)
	k := remoteKey("alpha")
	fx.c.Put(k, []byte("artifact-alpha"))

	other := fx.freshCache(t)
	data, ok, pr := other.GetProbeCtx(context.Background(), k)
	if !ok || string(data) != "artifact-alpha" {
		t.Fatalf("remote probe = %q, %v", data, ok)
	}
	wantTier := TierName(fx.remote.ShardFor(k.id()))
	if pr.Tier != wantTier {
		t.Fatalf("Probe.Tier = %q, want %q", pr.Tier, wantTier)
	}
	// Promotion: the same cache's next probe must be served locally.
	if _, ok, pr := other.GetProbeCtx(context.Background(), k); !ok || pr.Tier != "memory" {
		t.Fatalf("post-promotion probe tier = %q, %v; want memory hit", pr.Tier, ok)
	}
	// And a third cache (fresh memory, fresh disk) hits disk after its own
	// remote promotion round-trips through the entry file.
	third := fx.freshCache(t)
	if _, ok, pr := third.GetProbeCtx(context.Background(), k); !ok || !strings.HasPrefix(pr.Tier, "remote-shard-") {
		t.Fatalf("third machine probe tier = %q, %v; want remote hit", pr.Tier, ok)
	}
	third.mu.Lock()
	third.mem = map[string][]byte{}
	third.memBytes = 0
	third.mu.Unlock()
	if _, ok, pr := third.GetProbeCtx(context.Background(), k); !ok || pr.Tier != "disk" {
		t.Fatalf("promoted-to-disk probe tier = %q, %v; want disk hit", pr.Tier, ok)
	}
}

// TestRemoteDeadShardDegradesToMiss: with a shard's listener closed, probes
// that route to it degrade to misses (recording the error on the probe) and
// publications degrade to unpublished — never an error return, never a hang.
func TestRemoteDeadShardDegradesToMiss(t *testing.T) {
	fx := newRemoteFixture(t, 2)
	k := remoteKey("beta")
	shard := fx.remote.ShardFor(k.id())
	fx.srvs[shard].Close()

	pr := fx.c.PutProbeCtx(context.Background(), k, []byte("artifact-beta"))
	if pr.RemoteErr == nil {
		t.Fatal("publication to a dead shard reported no RemoteErr")
	}
	other := fx.freshCache(t)
	data, ok, pr := other.GetProbeCtx(context.Background(), k)
	if ok {
		t.Fatalf("dead shard served a hit: %q", data)
	}
	if pr.RemoteErr == nil {
		t.Fatal("probe against a dead shard reported no RemoteErr")
	}
	// The local tiers still work: the publisher's own probe is a memory hit.
	if _, ok, pr := fx.c.GetProbeCtx(context.Background(), k); !ok || pr.Tier != "memory" {
		t.Fatalf("publisher's local probe = %q, %v", pr.Tier, ok)
	}
}

// TestRemoteCorruptEntryDeletedAndRepublished: a shard serving damaged bytes
// is treated exactly like a damaged disk entry — miss, delete, and the next
// publication republishes a good copy that then hits.
func TestRemoteCorruptEntryDeletedAndRepublished(t *testing.T) {
	fx := newRemoteFixture(t, 2)
	k := remoteKey("gamma")
	id := k.id()
	fx.c.Put(k, []byte("artifact-gamma"))

	// Damage the entry inside the owning shard's store (behind the HTTP
	// server's back, as bit rot would).
	shard := fx.remote.ShardFor(id)
	store := fx.stores[shard]
	path := store.path(id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x80
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The shard's own validator catches this on Get — so the client sees a
	// plain miss and the shard deletes the entry itself.
	other := fx.freshCache(t)
	if _, ok, _ := other.GetProbeCtx(context.Background(), k); ok {
		t.Fatal("damaged remote entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged entry still resident in shard")
	}
	// Republish and the remote path works again end to end.
	other.Put(k, []byte("artifact-gamma"))
	third := fx.freshCache(t)
	if data, ok, _ := third.GetProbeCtx(context.Background(), k); !ok || string(data) != "artifact-gamma" {
		t.Fatalf("republished entry = %q, %v", data, ok)
	}
}

// TestRemoteClientSideCorruptionDropsEntry covers the second damage path: the
// shard serves bytes that fail the *client's* validation (damaged in flight).
// The client must degrade to a miss and delete the entry from the shard.
func TestRemoteClientSideCorruptionDropsEntry(t *testing.T) {
	fx := newRemoteFixture(t, 1)
	k := remoteKey("delta")
	id := k.id()
	fx.c.Put(k, []byte("artifact-delta"))

	other := fx.freshCache(t)
	inj := fault.Exact(fault.At{Site: fault.RemoteGet, Key: id, Kind: fault.CorruptKind})
	fx.remote.SetFault(inj)
	defer fx.remote.SetFault(nil)
	_, ok, pr := other.GetProbeCtx(context.Background(), k)
	if ok {
		t.Fatal("in-flight-damaged response served as a hit")
	}
	if !pr.Corrupt {
		t.Fatal("client-side corruption not recorded on the probe")
	}
	// The drop is fire-and-forget over HTTP; it completed synchronously
	// inside GetProbe, so the store must no longer hold the entry.
	if _, err := os.Stat(fx.stores[0].path(id)); !os.IsNotExist(err) {
		t.Fatal("damaged entry not dropped from shard")
	}
}

// TestRemoteShardRoutingIsDeterministic: ShardFor is a pure function — every
// client maps an id to the same shard — and ids spread across shards.
func TestRemoteShardRoutingIsDeterministic(t *testing.T) {
	a := NewRemoteWith([]string{"http://a", "http://b", "http://c"}, RemoteOptions{})
	b := NewRemoteWith([]string{"http://x", "http://y", "http://z"}, RemoteOptions{})
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		id := remoteKey(strings.Repeat("q", i+1)).id()
		sa, sb := a.ShardFor(id), b.ShardFor(id)
		if sa != sb {
			t.Fatalf("id %d routed to %d and %d by identical-size rings", i, sa, sb)
		}
		seen[sa] = true
	}
	if len(seen) != 3 {
		t.Fatalf("64 ids used only shards %v, want all 3", seen)
	}
}

// TestRemoteCountersAreLifetime: per-shard counters accumulate, and reading
// them does not reset them.
func TestRemoteCountersAreLifetime(t *testing.T) {
	fx := newRemoteFixture(t, 2)
	k := remoteKey("zeta")
	fx.c.Put(k, []byte("artifact-zeta"))
	fx.freshCache(t).Get(k)

	shard := fx.remote.ShardFor(k.id())
	prefix := "cache/remote/shard" + string(rune('0'+shard)) + "/"
	for read := 0; read < 2; read++ {
		snap := fx.remote.Counters()
		if snap[prefix+"puts"] != 1 || snap[prefix+"hits"] != 1 || snap[prefix+"inflight"] != 0 {
			t.Fatalf("read %d: counters = %v, want one put and one hit on shard %d", read, snap, shard)
		}
	}
	fx.freshCache(t).Get(k)
	if snap := fx.remote.Counters(); snap[prefix+"hits"] != 2 {
		t.Fatalf("counters after a second hit = %v", snap)
	}
}

// TestRemoteFilesStayInsideShardDir: the entry id is the only name component
// a client controls; confirm a published entry lands inside the shard
// directory under its content address.
func TestRemoteFilesStayInsideShardDir(t *testing.T) {
	fx := newRemoteFixture(t, 1)
	k := remoteKey("eta")
	fx.c.Put(k, []byte("artifact-eta"))
	matches, err := filepath.Glob(filepath.Join(fx.stores[0].dir, "*.art"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard dir holds %v (err %v), want exactly one entry", matches, err)
	}
	if filepath.Base(matches[0]) != k.id()+".art" {
		t.Fatalf("entry stored as %s, want %s.art", filepath.Base(matches[0]), k.id())
	}
}
