package cache

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
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
	c, sleeps := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	id := k.id()
	var points []fault.At
	for a := 0; a < retryAttempts; a++ {
		points = append(points, fault.At{
			Site: fault.CacheRead, Key: fmt.Sprintf("%s#%d", id, a),
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
	// Exponential backoff, capped: 1ms, 2ms, 4ms for a 4-attempt budget.
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond}
	if len(*sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", *sleeps, want)
	}
	for i := range want {
		if (*sleeps)[i] != want[i] {
			t.Fatalf("sleeps = %v, want %v", *sleeps, want)
		}
	}
	// The entry itself is intact: with the fault gone, the next probe hits.
	c.SetFault(nil)
	if _, ok, _ := c.GetProbeCtx(context.Background(), k); !ok {
		t.Fatal("entry lost after degraded miss")
	}
}

// TestReadFatalErrorSkipsRetry: a fatal classification ends the loop at once.
func TestReadFatalErrorSkipsRetry(t *testing.T) {
	c, sleeps := openQuiet(t)
	k := retryTestKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	c.SetFault(fault.Exact(
		fault.At{Site: fault.CacheRead, Key: k.id() + "#0", Kind: fault.ErrorKind, Transient: false},
	))
	_, ok, pr := c.GetProbeCtx(context.Background(), k)
	if ok || pr.Retries != 0 || len(*sleeps) != 0 {
		t.Fatalf("fatal error retried: ok=%v probe=%+v sleeps=%v", ok, pr, *sleeps)
	}
	if Classify(pr.IOErr) != ClassFatal {
		t.Fatalf("IOErr %v classified %v", pr.IOErr, Classify(pr.IOErr))
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

func TestClassify(t *testing.T) {
	wrap := func(err error) error {
		return &fs.PathError{Op: "read", Path: "x.art", Err: err}
	}
	cases := []struct {
		err  error
		want Class
	}{
		{wrap(syscall.EIO), ClassTransient},
		{wrap(syscall.EAGAIN), ClassTransient},
		{wrap(syscall.EINTR), ClassTransient},
		{errors.New("unidentified disk weather"), ClassTransient},
		{wrap(syscall.ENOSPC), ClassFatal},
		{wrap(syscall.EROFS), ClassFatal},
		{wrap(syscall.EACCES), ClassFatal},
		{wrap(syscall.EPERM), ClassFatal},
		{&fault.Error{Site: fault.CacheRead, Transient: true}, ClassTransient},
		{&fault.Error{Site: fault.CacheRead, Transient: false}, ClassFatal},
		{fmt.Errorf("cache: entry too short: %w", ErrCorrupt), ClassCorrupt},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	for _, errno := range transientErrnos {
		if got := Classify(wrap(errno)); got != ClassTransient {
			t.Errorf("Classify(%v) = %v, want transient", errno, got)
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
