package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func shardID(n int) string { return fmt.Sprintf("%040x", n) }

// shardEntry returns a valid encoded entry whose payload has the given size.
func shardEntry(seed byte, size int) []byte {
	payload := bytes.Repeat([]byte{seed}, size)
	return encodeEntry(payload)
}

// TestShardCapNeverExceeded is the LRU property test: under a seeded random
// mix of puts and gets, the resident size never exceeds the cap after any
// operation, and every storable entry is accepted.
func TestShardCapNeverExceeded(t *testing.T) {
	const capBytes = 4096
	s, err := OpenShard(t.TempDir(), capBytes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20260807))
	for op := 0; op < 500; op++ {
		id := shardID(rng.Intn(40))
		if rng.Intn(3) == 0 {
			s.Get(id)
		} else {
			enc := shardEntry(byte(op), rng.Intn(1500)+1)
			stored := s.Put(id, enc)
			if int64(len(enc)) <= capBytes && !stored {
				t.Fatalf("op %d: shard rejected a storable %d-byte entry", op, len(enc))
			}
		}
		if b := s.Bytes(); b > capBytes {
			t.Fatalf("op %d: resident %d bytes exceeds cap %d", op, b, capBytes)
		}
	}
	if s.Len() == 0 {
		t.Fatal("shard ended empty — the sequence never kept an entry resident")
	}
}

// TestShardDeterministicEviction: eviction is a pure function of the access
// sequence. Two shards replaying the same seeded operations report identical
// eviction orders via the evict hook, and reopening the directory under a
// smaller cap adopts the same survivors. Both are pinned to a digest recorded
// before Put and adoption shared one eviction loop.
func TestShardDeterministicEviction(t *testing.T) {
	run := func() []string {
		dir := t.TempDir()
		s, err := OpenShard(dir, 2048)
		if err != nil {
			t.Fatal(err)
		}
		var evicted []string
		s.SetEvictHook(func(id string) { evicted = append(evicted, id) })
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 300; op++ {
			id := shardID(rng.Intn(24))
			if rng.Intn(4) == 0 {
				s.Get(id)
			} else {
				s.Put(id, shardEntry(byte(op%251), rng.Intn(700)+1))
			}
		}
		reopened, err := OpenShard(dir, 1024)
		if err != nil {
			t.Fatal(err)
		}
		survivors, err := filepath.Glob(filepath.Join(dir, "*.art"))
		if err != nil {
			t.Fatal(err)
		}
		evicted = append(evicted, fmt.Sprintf("reopened %d bytes:", reopened.Bytes()))
		for _, path := range survivors {
			evicted = append(evicted, filepath.Base(path))
		}
		return evicted
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("sequence caused no evictions — cap too generous for the test to mean anything")
	}
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Fatalf("eviction order diverged between identical replays:\n  %v\n  %v", first, second)
	}
	const want = "e3e52681403e8d4341f1bc2251a5bc67208a948065f49c519c71ab2ffdf737ff"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(first)))); got != want {
		t.Fatalf("eviction digest = %s, want %s", got, want)
	}
}

// TestShardLRUOrder pins the eviction policy itself: touching an entry
// protects it, and the least-recently-used entry is the victim.
func TestShardLRUOrder(t *testing.T) {
	// Three 1000-byte-payload entries fit under the cap; a fourth forces one
	// eviction. entrySize = payload + header + checksum, so size the cap off
	// a real encoding.
	enc := shardEntry(1, 1000)
	s, err := OpenShard(t.TempDir(), int64(len(enc))*3)
	if err != nil {
		t.Fatal(err)
	}
	var evicted []string
	s.SetEvictHook(func(id string) { evicted = append(evicted, id) })
	for i := 0; i < 3; i++ {
		if !s.Put(shardID(i), shardEntry(byte(i), 1000)) {
			t.Fatalf("put %d rejected", i)
		}
	}
	// Touch the oldest entry; the middle one becomes the LRU victim.
	if _, ok := s.Get(shardID(0)); !ok {
		t.Fatal("get 0 missed")
	}
	if !s.Put(shardID(3), shardEntry(3, 1000)) {
		t.Fatal("put 3 rejected")
	}
	if fmt.Sprint(evicted) != fmt.Sprint([]string{shardID(1)}) {
		t.Fatalf("evicted %v, want exactly [%s]", evicted, shardID(1))
	}
	if _, ok := s.Get(shardID(0)); !ok {
		t.Fatal("touched entry was evicted")
	}
}

// TestShardCorruptEntryDeletedAndRepublished: a damaged resident entry is
// detected on Get, deleted, and a subsequent Put republishes cleanly.
func TestShardCorruptEntryDeletedAndRepublished(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShard(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	id := shardID(1)
	enc := shardEntry(9, 128)
	if !s.Put(id, enc) {
		t.Fatal("put rejected")
	}
	// Damage the published file: flip a payload byte.
	path := s.path(id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not deleted: %v", err)
	}
	if c := s.Counters(); c["shard/corrupt"] != 1 {
		t.Fatalf("shard/corrupt = %d, want 1", c["shard/corrupt"])
	}
	// Truncation is the other damage shape the validator must catch.
	if !s.Put(id, enc) {
		t.Fatal("republish rejected")
	}
	if err := os.WriteFile(path, raw[:8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); ok {
		t.Fatal("truncated entry served as a hit")
	}
	// Republish once more; the entry must be a clean hit again.
	if !s.Put(id, enc) {
		t.Fatal("second republish rejected")
	}
	got, ok := s.Get(id)
	if !ok || !bytes.Equal(got, enc) {
		t.Fatal("republished entry did not round-trip")
	}
}

// TestShardRejects: invalid encodings and entries larger than the whole cap
// are rejected outright, never stored, never evict anything.
func TestShardRejects(t *testing.T) {
	s, err := OpenShard(t.TempDir(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Put(shardID(0), shardEntry(1, 100)) {
		t.Fatal("baseline put rejected")
	}
	if s.Put(shardID(1), []byte("not an entry")) {
		t.Fatal("invalid encoding accepted")
	}
	if s.Put(shardID(2), shardEntry(2, 4096)) {
		t.Fatal("over-cap entry accepted")
	}
	c := s.Counters()
	if c["shard/rejected"] != 2 {
		t.Fatalf("shard/rejected = %d, want 2", c["shard/rejected"])
	}
	if c["shard/evictions"] != 0 {
		t.Fatalf("rejections evicted %d resident entries", c["shard/evictions"])
	}
	if _, ok := s.Get(shardID(0)); !ok {
		t.Fatal("baseline entry lost")
	}
}

// TestShardFailedPublishLeavesNoFile: a Put that replaces an entry and then
// fails to publish drops the entry and its old file, so nothing outside the
// index (and the cap) survives on disk for a reopen to adopt. The failure is
// staged with an empty directory where the entry's file was, which the
// publishing rename cannot replace.
func TestShardFailedPublishLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShard(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	id := shardID(1)
	if !s.Put(id, shardEntry(1, 64)) {
		t.Fatal("put rejected")
	}
	path := s.path(id)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if s.Put(id, shardEntry(2, 64)) {
		t.Fatal("a publish over a directory succeeded")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatalf("failed publish left %d entries / %d bytes in the index", s.Len(), s.Bytes())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("failed publish left the replaced entry's file behind: %v", err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
		t.Fatalf("failed publish left files behind: %v", left)
	}
	reopened, err := OpenShard(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 0 {
		t.Fatalf("reopen adopted %d entries after the failed publish", reopened.Len())
	}
}

// TestShardAdoptsExistingEntries: reopening a shard directory adopts the
// entries already on disk (deterministically, in name order).
func TestShardAdoptsExistingEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenShard(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !s.Put(shardID(i), shardEntry(byte(i), 64)) {
			t.Fatalf("put %d rejected", i)
		}
	}
	reopened, err := OpenShard(dir, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 5 || reopened.Bytes() != s.Bytes() {
		t.Fatalf("adopted %d entries / %d bytes, want 5 / %d", reopened.Len(), reopened.Bytes(), s.Bytes())
	}
	for i := 0; i < 5; i++ {
		if _, ok := reopened.Get(shardID(i)); !ok {
			t.Fatalf("adopted entry %d missed", i)
		}
	}
}

// TestShardServerProtocol covers the HTTP protocol end to end against a real
// listener: PUT/GET/DELETE round-trip, invalid uploads, invalid ids, /statz.
func TestShardServerProtocol(t *testing.T) {
	s, err := OpenShard(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewShardServer(s))
	defer srv.Close()

	id := shardID(7)
	enc := shardEntry(5, 256)
	do := func(method, path string, body []byte) *http.Response {
		t.Helper()
		var rd *bytes.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		} else {
			rd = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	expect := func(resp *http.Response, want int) {
		t.Helper()
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s = %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
		}
	}

	expect(do(http.MethodGet, "/entry/"+id, nil), http.StatusNotFound)
	expect(do(http.MethodPut, "/entry/"+id, enc), http.StatusNoContent)
	resp := do(http.MethodGet, "/entry/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after PUT = %d", resp.StatusCode)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got.Bytes(), enc) {
		t.Fatal("GET body differs from PUT body")
	}
	expect(do(http.MethodPut, "/entry/"+id, []byte("garbage")), http.StatusBadRequest)
	expect(do(http.MethodDelete, "/entry/"+id, nil), http.StatusNoContent)
	expect(do(http.MethodGet, "/entry/"+id, nil), http.StatusNotFound)
	expect(do(http.MethodGet, "/entry/../escape", nil), http.StatusBadRequest)
	expect(do(http.MethodGet, "/entry/NOTHEX", nil), http.StatusBadRequest)
	expect(do(http.MethodPost, "/entry/"+id, enc), http.StatusMethodNotAllowed)

	statz := do(http.MethodGet, "/statz", nil)
	defer statz.Body.Close()
	var counters map[string]int64
	if err := json.NewDecoder(statz.Body).Decode(&counters); err != nil {
		t.Fatalf("/statz decode: %v", err)
	}
	if counters["shard/puts"] != 1 || counters["shard/rejected"] != 1 {
		t.Fatalf("statz counters off: %v", counters)
	}
}
