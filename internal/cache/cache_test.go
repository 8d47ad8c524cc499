package cache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"outliner/internal/raceflag"
)

// encodeEntry returns payload's entry in one buffer, laid out independently
// of frameEntry: magic, little-endian payload length, payload, SHA-256.
func encodeEntry(payload []byte) []byte {
	out := append([]byte("SLC1"), binary.LittleEndian.AppendUint64(nil, uint64(len(payload)))...)
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

func testKey() Key {
	return Key{Stage: "llir", Input: HashBytes([]byte("src")), Config: "verify=true", Schema: 1}
}

func TestPutGetMemory(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("artifact"))
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, []byte("artifact")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
}

// TestMemoryTierDropsSpareCapacity: an entry lives in the memory tier for as
// long as the process does, so the tier must not also hold the unused tail of
// the buffer its encoder grew by appending.
func TestMemoryTierDropsSpareCapacity(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := append(make([]byte, 0, 64<<10), bytes.Repeat([]byte("artifact"), 2048)...)
	want := bytes.Clone(data)
	c.Put(testKey(), data)
	got, ok := c.Get(testKey())
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get returned %d bytes, ok=%v; want the %d put", len(got), ok, len(want))
	}
	if spare := cap(got) - len(got); spare > len(got)/8 {
		t.Errorf("memory tier holds %d spare bytes behind a %d-byte entry", spare, len(got))
	}
}

func TestDiskTierSurvivesMemoryDrop(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey()
	c.Put(k, []byte("artifact"))
	c.DropMemory()
	got, ok := c.Get(k)
	if !ok || !bytes.Equal(got, []byte("artifact")) {
		t.Fatalf("disk Get after DropMemory = %q, %v", got, ok)
	}
	// A second Open over the same directory models a fresh process.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := c2.Get(k); !ok || !bytes.Equal(got, []byte("artifact")) {
		t.Fatalf("fresh-process Get = %q, %v", got, ok)
	}
}

// Any key-field difference — stage, input, config, or schema version — must
// address a different entry. The schema case is how a codec bump invalidates
// every stored artifact.
func TestKeyFieldsAllDiscriminate(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := testKey()
	c.Put(base, []byte("artifact"))
	variants := []Key{
		{Stage: "machine", Input: base.Input, Config: base.Config, Schema: base.Schema},
		{Stage: base.Stage, Input: HashBytes([]byte("edited")), Config: base.Config, Schema: base.Schema},
		{Stage: base.Stage, Input: base.Input, Config: "verify=false", Schema: base.Schema},
		{Stage: base.Stage, Input: base.Input, Config: base.Config, Schema: base.Schema + 1},
	}
	for i, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Errorf("variant %d unexpectedly hit %+v", i, k)
		}
	}
}

// corruptEntries mutates every entry file under dir with mutate and returns
// how many files it touched.
func corruptEntries(t *testing.T, dir string, mutate func([]byte) []byte) int {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ents {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mutate(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(ents)
}

func TestCorruptedEntryIsMissAndDeleted(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"payload-flip": func(raw []byte) []byte {
			mut := append([]byte(nil), raw...)
			mut[len(mut)/2] ^= 0x01
			return mut
		},
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"empty":     func([]byte) []byte { return nil },
		"foreign":   func([]byte) []byte { return []byte("not a cache entry") },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := testKey()
			c.Put(k, []byte("artifact"))
			if n := corruptEntries(t, dir, mutate); n != 1 {
				t.Fatalf("expected 1 entry on disk, found %d", n)
			}
			c.DropMemory()
			if _, ok := c.Get(k); ok {
				t.Fatal("corrupted entry reported as hit")
			}
			if ents, _ := filepath.Glob(filepath.Join(dir, "*.art")); len(ents) != 0 {
				t.Fatalf("corrupted entry not deleted: %v", ents)
			}
			// The slot is reusable: a republish hits again.
			c.Put(k, []byte("artifact"))
			c.DropMemory()
			if got, ok := c.Get(k); !ok || !bytes.Equal(got, []byte("artifact")) {
				t.Fatalf("republish after corruption: Get = %q, %v", got, ok)
			}
		})
	}
}

// Same-key and distinct-key concurrent use must be race-free (run under
// -race in CI). Same-key writers store identical bytes, mirroring the
// deterministic pipeline's behaviour.
func TestConcurrentPutGet(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := testKey()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := Key{Stage: "machine", Input: HashBytes([]byte(fmt.Sprintf("mod%d", w))), Schema: 1}
			for i := 0; i < 50; i++ {
				c.Put(shared, []byte("same bytes from every writer"))
				if got, ok := c.Get(shared); ok && !bytes.Equal(got, []byte("same bytes from every writer")) {
					t.Errorf("worker %d read torn shared entry %q", w, got)
					return
				}
				c.Put(own, []byte(fmt.Sprintf("artifact %d", w)))
				if got, ok := c.Get(own); !ok || !bytes.Equal(got, []byte(fmt.Sprintf("artifact %d", w))) {
					t.Errorf("worker %d lost its own entry", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Put(testKey(), []byte("artifact")) // must not panic
	if _, ok := c.Get(testKey()); ok {
		t.Fatal("nil cache hit")
	}
	c.DropMemory()
}

func TestSharedReturnsOneInstancePerDir(t *testing.T) {
	dir := t.TempDir()
	defer Forget(dir)
	a, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Shared returned distinct instances for one dir")
	}
	Forget(dir)
	c, err := Shared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("Forget did not drop the shared instance")
	}
	Forget(dir)
}

// TestHasherDigestGolden pins a Hasher digest recorded before WriteString
// fed sha256 through the Hasher's buffer: keys must stay byte-identical, so
// strings shorter than, as long as and longer than the buffer (and a block)
// hash as they did.
func TestHasherDigestGolden(t *testing.T) {
	const want = "bd727368bd495ae267b8ec5310353aaa4e4f3598094bc3334a853d0421349419"
	h := NewHasher()
	for _, n := range []int{0, 1, 63, 64, 65, 255, 256, 257, 1000, 64<<10 + 3} {
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(byte('a' + i%26))
		}
		h.WriteString(b.String())
		h.Write([]byte{byte(n)})
	}
	if got := h.Sum(); got != want {
		t.Fatalf("Hasher digest drifted: got %s want %s", got, want)
	}
}

// TestHasherWriteStringAllocFree: hashing a string does not copy it.
func TestHasherWriteStringAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := strings.Repeat("x", 64<<10)
	h := NewHasher()
	if n := testing.AllocsPerRun(10, func() { h.WriteString(s) }); n != 0 {
		t.Fatalf("WriteString of a 64 KiB string: %v allocs, want 0", n)
	}
}

// TestEntryBytesUnchanged: an entry written as frameEntry's three slices is
// the layout encodeEntry spells out, on disk and on a shard, and a remote hit
// promotes the raw entry it received to disk as it came.
func TestEntryBytesUnchanged(t *testing.T) {
	fx := newRemoteFixture(t, 1)
	k := remoteKey("framed")
	payload := bytes.Repeat([]byte("artifact"), 1000)
	want := encodeEntry(payload)
	fx.c.Put(k, payload)
	if got, err := os.ReadFile(fx.c.entryPath(k.id())); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("disk entry is %d bytes (%v), want the %d-byte layout", len(got), err, len(want))
	}
	if got, ok := fx.stores[0].Get(k.id()); !ok || !bytes.Equal(got, want) {
		t.Fatalf("shard entry is %d bytes (ok=%v), want the %d-byte layout", len(got), ok, len(want))
	}
	other := fx.freshCache(t)
	if _, ok, pr := other.GetProbeCtx(context.Background(), k); !ok || !strings.HasPrefix(pr.Tier, "remote-shard-") {
		t.Fatalf("probe tier = %q, %v; want a remote hit", pr.Tier, ok)
	}
	if got, err := os.ReadFile(other.entryPath(k.id())); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("promoted entry is %d bytes (%v), want the %d-byte layout", len(got), err, len(want))
	}
}

// TestAllocBudgetEntryPut: publishing a payload to disk frames it where it
// lies. A 1 MiB Put allocates under 64 KiB — the key, the temp file and the
// frame's header and checksum — where copying the payload into one buffer
// allocated more than the payload.
func TestAllocBudgetEntryPut(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const budget = 64 << 10
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xa5}, 1<<20)
	c.Put(testKey(), payload) // the directory's first file is not the entry's cost
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		c.Put(testKey(), payload)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= budget {
		t.Errorf("a disk Put of a 1 MiB payload allocates %d bytes; budget %d", per, budget)
	}
}
