package cache

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"outliner/internal/fault"
)

func retryTestKey() Key {
	return Key{Stage: "llir", Input: "deadbeef", Config: "cfg", Schema: 1}
}

// openQuiet opens a private cache with an instant clock, returning the cache
// and a pointer to the recorded backoff sleeps.
func openQuiet(t *testing.T) (*Cache, *[]time.Duration) {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sleeps := &[]time.Duration{}
	c.sleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	return c, sleeps
}

// TestReadRetryThenSucceed: a transient read error on attempt 0 heals on
// attempt 1 — the hit survives one flaky read, with one recorded retry.
func TestReadRetryThenSucceed(t *testing.T) {
	c, sleeps := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	id := k.id()
	c.SetFault(fault.Exact(
		fault.At{Site: fault.CacheRead, Key: id + "#0", Kind: fault.ErrorKind, Transient: true},
	))
	got, ok, pr := c.GetProbeCtx(context.Background(), k)
	if !ok || string(got) != "artifact" {
		t.Fatalf("GetProbe = %q, %v after transient blip", got, ok)
	}
	if pr.Retries != 1 || pr.IOErr != nil || pr.Corrupt {
		t.Fatalf("probe = %+v, want exactly one clean retry", pr)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != time.Millisecond {
		t.Fatalf("backoff sleeps = %v, want [1ms]", *sleeps)
	}
}

// TestReadAlwaysFailingDegradesToMiss: when every attempt fails transiently
// the lookup gives up after the attempt budget and reports a miss — never an
// error to the caller.
func TestReadAlwaysFailingDegradesToMiss(t *testing.T) {
	c, _ := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	id := k.id()
	var points []fault.At
	for a := 0; a < retryAttempts; a++ {
		points = append(points, fault.At{
			Site: fault.CacheRead, Key: attemptKey(id, a),
			Kind: fault.ErrorKind, Transient: true,
		})
	}
	c.SetFault(fault.Exact(points...))
	_, ok, pr := c.GetProbeCtx(context.Background(), k)
	if ok {
		t.Fatal("hit through a fully failing read path")
	}
	if pr.Retries != retryAttempts-1 || !fault.IsInjected(pr.IOErr) {
		t.Fatalf("probe = %+v", pr)
	}
	// The entry itself is intact: with the fault gone, the next probe hits.
	c.SetFault(nil)
	if _, ok, _ := c.GetProbeCtx(context.Background(), k); !ok {
		t.Fatal("entry lost after degraded miss")
	}
}

// TestCorruptEntryUndeletable: a damaged entry whose delete also fails still
// degrades to a miss, with the failed delete reported — the bugfix for the
// old silently-ignored os.Remove error. (The remover is injected because the
// chmod trick does not work when tests run as root.)
func TestCorruptEntryUndeletable(t *testing.T) {
	c, _ := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	// Truncate the entry on disk.
	ents, err := filepath.Glob(filepath.Join(c.dir, "*.art"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("entries = %v, %v", ents, err)
	}
	if err := os.WriteFile(ents[0], []byte("SLC1 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	denied := &fs.PathError{Op: "remove", Path: ents[0], Err: syscall.EACCES}
	c.remove = func(string) error { return denied }

	_, ok, pr := c.GetProbeCtx(context.Background(), k)
	if ok {
		t.Fatal("corrupt entry reported as hit")
	}
	if !pr.Corrupt || !errors.Is(pr.RemoveErr, syscall.EACCES) {
		t.Fatalf("probe = %+v, want Corrupt with the EACCES remove error", pr)
	}
	if _, err := os.Stat(ents[0]); err != nil {
		t.Fatal("undeletable entry vanished")
	}
	// Once deletes work again the entry is discarded and a republish heals it.
	c.remove = nil
	if _, ok, _ := c.GetProbeCtx(context.Background(), k); ok {
		t.Fatal("still hitting the corrupt entry")
	}
	if _, err := os.Stat(ents[0]); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	if got, ok, _ := c.GetProbeCtx(context.Background(), k); !ok || string(got) != "artifact" {
		t.Fatalf("republish after corruption = %q, %v", got, ok)
	}
}

// TestInjectedCorruptionAlwaysDetected: fault-injected byte corruption lands
// under the entry checksum, so it can only ever produce a (reported) miss —
// never a wrong artifact.
func TestInjectedCorruptionAlwaysDetected(t *testing.T) {
	c, _ := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	c.SetFault(fault.Exact(
		fault.At{Site: fault.CacheRead, Key: k.id(), Kind: fault.CorruptKind},
	))
	got, ok, pr := c.GetProbeCtx(context.Background(), k)
	if ok {
		t.Fatalf("injected corruption returned a hit: %q", got)
	}
	if !pr.Corrupt {
		t.Fatalf("probe = %+v, want Corrupt", pr)
	}
}

// TestWriteRetryThenSucceed: Put survives a transient write blip and the
// entry lands on disk.
func TestWriteRetryThenSucceed(t *testing.T) {
	c, _ := openQuiet(t)
	k := retryTestKey()
	c.SetFault(fault.Exact(
		fault.At{Site: fault.CacheWrite, Key: k.id() + "#0", Kind: fault.ErrorKind, Transient: true},
	))
	pr := c.PutProbeCtx(context.Background(), k, []byte("artifact"))
	if pr.Retries != 1 || pr.IOErr != nil {
		t.Fatalf("probe = %+v", pr)
	}
	c.SetFault(nil)
	c.DropMemory()
	if got, ok, _ := c.GetProbeCtx(context.Background(), k); !ok || string(got) != "artifact" {
		t.Fatalf("disk entry after retried Put = %q, %v", got, ok)
	}
}

// TestWriteFatalDegradesToMemoryTier: a fatal publish failure keeps the
// build going on the memory tier alone.
func TestWriteFatalDegradesToMemoryTier(t *testing.T) {
	c, sleeps := openQuiet(t)
	k := retryTestKey()
	c.SetFault(fault.Exact(
		fault.At{Site: fault.CacheWrite, Key: k.id() + "#0", Kind: fault.ErrorKind, Transient: false},
	))
	pr := c.PutProbeCtx(context.Background(), k, []byte("artifact"))
	if pr.IOErr == nil || pr.Retries != 0 || len(*sleeps) != 0 {
		t.Fatalf("probe = %+v sleeps=%v", pr, *sleeps)
	}
	if ents, _ := filepath.Glob(filepath.Join(c.dir, "*.art")); len(ents) != 0 {
		t.Fatalf("fatal write still published: %v", ents)
	}
	if got, ok := c.Get(k); !ok || string(got) != "artifact" {
		t.Fatalf("memory tier lost the artifact: %q, %v", got, ok)
	}
}

// TestFatal: only the environmental errnos and injected non-transient faults
// end a retry loop; the flaky-I/O shapes and anything unrecognized retry.
func TestFatal(t *testing.T) {
	wrap := func(err error) error {
		return &fs.PathError{Op: "read", Path: "x.art", Err: err}
	}
	cases := []struct {
		err  error
		want bool
	}{
		{wrap(syscall.EINTR), false},
		{wrap(syscall.EAGAIN), false},
		{wrap(syscall.EBUSY), false},
		{wrap(syscall.EIO), false},
		{wrap(syscall.ENFILE), false},
		{wrap(syscall.EMFILE), false},
		{wrap(syscall.ETIMEDOUT), false},
		{errors.New("unidentified disk weather"), false},
		{wrap(syscall.ENOSPC), true},
		{wrap(syscall.EROFS), true},
		{wrap(syscall.EACCES), true},
		{wrap(syscall.EPERM), true},
		{&fault.Error{Site: fault.CacheRead, Transient: true}, false},
		{&fault.Error{Site: fault.CacheRead, Transient: false}, true},
	}
	for _, tc := range cases {
		if got := fatal(tc.err); got != tc.want {
			t.Errorf("fatal(%v) = %t, want %t", tc.err, got, tc.want)
		}
	}
}

func TestProbeMerge(t *testing.T) {
	var p Probe
	p.Merge(Probe{Retries: 2, Corrupt: true})
	p.Merge(Probe{Retries: 1, IOErr: errors.New("x")})
	if p.Retries != 3 || !p.Corrupt || p.IOErr == nil || p.RemoveErr != nil {
		t.Fatalf("merged probe = %+v", p)
	}
}

// TestRetry is the one retry loop's contract, over the four operations that
// run it: a transient error is retried to the attempt budget under capped
// backoff, a fatal one is not retried, a blip on the first attempt heals on
// the second, and a context that is done between attempts ends the loop — on
// the remote tier without a strike against the shard's breaker.
func TestRetry(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name string
		// faults scripts attempts 0..len-1 to fail with this transient bit.
		faults    []bool
		cancel    bool // the first backoff sleep cancels the context
		ok        bool
		retries   int
		sleeps    []time.Duration
		wantErr   func(error) bool
		breakerUp bool // on the remote: the breaker (threshold 1) stays closed
	}{
		{name: "transient", faults: []bool{true, true, true, true}, retries: 3,
			sleeps: []time.Duration{ms, 2 * ms, 4 * ms}, wantErr: fault.IsInjected},
		{name: "fatal", faults: []bool{false},
			wantErr: func(err error) bool { return fatal(err) && fault.IsInjected(err) }},
		{name: "heal", faults: []bool{true}, ok: true, retries: 1,
			sleeps: []time.Duration{ms}, breakerUp: true},
		{name: "cancelled", faults: []bool{true, true, true, true}, cancel: true, retries: 1,
			sleeps:    []time.Duration{ms},
			wantErr:   func(err error) bool { return errors.Is(err, context.Canceled) },
			breakerUp: true},
	}
	ops := []struct {
		name   string
		site   fault.Site
		remote bool
		// run performs the operation on fx and reports whether it succeeded
		// (a hit, for a read) and the error it degraded over.
		run func(ctx context.Context, fx *retryFixture) (bool, Probe, error)
	}{
		{"disk-read", fault.CacheRead, false, func(ctx context.Context, fx *retryFixture) (bool, Probe, error) {
			var pr Probe
			_, found, err := fx.c.readEntry(ctx, fx.id, fx.c.entryPath(fx.id), &pr)
			return found, pr, err
		}},
		{"disk-write", fault.CacheWrite, false, func(ctx context.Context, fx *retryFixture) (bool, Probe, error) {
			var pr Probe
			err := fx.c.writeEntry(ctx, fx.id, fx.entry, &pr)
			return err == nil, pr, err
		}},
		{"remote-get", fault.RemoteGet, true, func(ctx context.Context, fx *retryFixture) (bool, Probe, error) {
			_, _, ok, pr := fx.remote.get(ctx, fx.id)
			return ok, pr, pr.RemoteErr
		}},
		{"remote-put", fault.RemotePut, true, func(ctx context.Context, fx *retryFixture) (bool, Probe, error) {
			pr := fx.remote.put(ctx, fx.id, fx.entry)
			return pr.RemoteErr == nil, pr, pr.RemoteErr
		}},
	}
	for _, op := range ops {
		for _, tc := range cases {
			t.Run(op.name+"/"+tc.name, func(t *testing.T) {
				fx := newRetryFixture(t)
				var points []fault.At
				for a, transient := range tc.faults {
					points = append(points, fault.At{Site: op.site, Key: attemptKey(fx.id, a), Kind: fault.ErrorKind, Transient: transient})
				}
				inj := fault.Exact(points...)
				fx.c.SetFault(inj)
				fx.remote.SetFault(inj)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var sleeps []time.Duration
				sleep := func(d time.Duration) {
					sleeps = append(sleeps, d)
					if tc.cancel {
						cancel()
					}
				}
				fx.c.sleep, fx.remote.sleep = sleep, sleep

				ok, pr, err := op.run(ctx, fx)
				if ok != tc.ok || pr.Retries != tc.retries || fmt.Sprint(sleeps) != fmt.Sprint(tc.sleeps) {
					t.Fatalf("ok=%t retries=%d sleeps=%v, want ok=%t retries=%d sleeps=%v",
						ok, pr.Retries, sleeps, tc.ok, tc.retries, tc.sleeps)
				}
				if tc.wantErr == nil && err != nil || tc.wantErr != nil && !tc.wantErr(err) {
					t.Fatalf("error = %v", err)
				}
				// Every attempt but a successful last one failed on its fault.
				failed := int64(tc.retries + 1)
				if tc.ok {
					failed--
				}
				if n := inj.DrainCounters()["fault/"+string(op.site)]; n != failed {
					t.Fatalf("%d attempts failed, want %d", n, failed)
				}
				if op.remote {
					if up := fx.remote.Breaker(0).State == BreakerClosed; up != tc.breakerUp {
						t.Fatalf("breaker closed = %t, want %t", up, tc.breakerUp)
					}
				}
			})
		}
	}
}

// retryFixture is a private cache over one live shard whose breaker opens
// on a single failed operation, with one entry already on disk and on the
// shard, so every operation TestRetry runs can succeed once its faults pass.
type retryFixture struct {
	c      *Cache
	remote *Remote
	id     string
	entry  [][]byte
}

func newRetryFixture(t *testing.T) *retryFixture {
	t.Helper()
	store, err := OpenShard(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewShardServer(store))
	t.Cleanup(srv.Close)
	fx := &retryFixture{
		remote: NewRemoteWith([]string{srv.URL}, RemoteOptions{BreakerThreshold: 1, ProbeInterval: time.Hour}),
		id:     retryTestKey().id(),
		entry:  frameEntry([]byte("artifact")),
	}
	t.Cleanup(fx.remote.Close)
	if fx.c, err = Open(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	var pr Probe
	if err := fx.c.writeEntry(context.Background(), fx.id, fx.entry, &pr); err != nil {
		t.Fatal(err)
	}
	if pr := fx.remote.put(context.Background(), fx.id, fx.entry); pr.RemoteErr != nil {
		t.Fatal(pr.RemoteErr)
	}
	return fx
}
