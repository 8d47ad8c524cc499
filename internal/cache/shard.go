package cache

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ShardStore is one remote-cache shard's backend: the PR 4 disk-entry format
// (magic, length, payload, SHA-256; temp-file + atomic-rename publication)
// behind an LRU index with a hard size cap. Eviction is deterministic: it is
// a pure function of the access sequence, so two shards replaying the same
// operations evict the same entries in the same order.
//
// The cap is never exceeded, not even transiently: Put evicts from the cold
// end before publishing, and an entry larger than the whole cap is rejected
// outright rather than evicting everything else to make room.
type ShardStore struct {
	dir string
	cap int64

	mu      sync.Mutex
	index   map[string]*list.Element // id → lru element
	lru     *list.List               // front = hottest, back = next victim
	bytes   int64
	onEvict func(id string) // test hook: observes eviction order

	hits, misses, puts, evictions, corrupt, rejected int64
}

// lruEntry is one resident entry's bookkeeping.
type lruEntry struct {
	id   string
	size int64
}

// OpenShard opens (creating if needed) a shard store under dir with the given
// byte cap. Entries already on disk are adopted in name order — a
// deterministic warm start — and evicted from the sorted tail if they exceed
// the cap.
func OpenShard(dir string, capBytes int64) (*ShardStore, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("cache: shard cap must be positive, got %d", capBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &ShardStore{
		dir:   dir,
		cap:   capBytes,
		index: make(map[string]*list.Element),
		lru:   list.New(),
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		id := strings.TrimSuffix(filepath.Base(path), ".art")
		s.insert(id, fi.Size())
	}
	return s, nil
}

// SetEvictHook registers fn to observe every eviction, in order. Tests use it
// to assert deterministic eviction sequences.
func (s *ShardStore) SetEvictHook(fn func(id string)) {
	s.mu.Lock()
	s.onEvict = fn
	s.mu.Unlock()
}

func (s *ShardStore) path(id string) string {
	return filepath.Join(s.dir, id+".art")
}

// insert adds id at the hot end, replacing any entry under id, and evicts
// cold entries until the cap holds. Caller holds s.mu or is single-threaded
// (OpenShard).
func (s *ShardStore) insert(id string, size int64) {
	if el, ok := s.index[id]; ok {
		s.bytes -= el.Value.(*lruEntry).size
		s.lru.Remove(el)
		delete(s.index, id)
	}
	s.bytes += size
	s.index[id] = s.lru.PushFront(&lruEntry{id: id, size: size})
	for s.bytes > s.cap {
		victim := s.lru.Back()
		if victim == nil {
			break
		}
		s.evictLocked(victim)
	}
}

// evictLocked removes the entry from index, disk, and byte count.
func (s *ShardStore) evictLocked(el *list.Element) {
	e := el.Value.(*lruEntry)
	s.lru.Remove(el)
	delete(s.index, e.id)
	s.bytes -= e.size
	s.evictions++
	os.Remove(s.path(e.id))
	if s.onEvict != nil {
		s.onEvict(e.id)
	}
}

// dropLocked removes a damaged entry without counting an eviction.
func (s *ShardStore) dropLocked(id string) {
	if el, ok := s.index[id]; ok {
		s.bytes -= el.Value.(*lruEntry).size
		s.lru.Remove(el)
		delete(s.index, id)
	}
	os.Remove(s.path(id))
}

// Get returns the raw encoded entry for id, touching it to the hot end. A
// corrupt or truncated entry is deleted and reported as a miss — the client
// republishes a good one, the same rebuild-and-republish contract the disk
// tier keeps.
func (s *ShardStore) Get(id string) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.index[id]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.lru.MoveToFront(el)
	path := s.path(id)
	raw, err := os.ReadFile(path)
	if err == nil {
		if _, derr := decodeEntry(raw); derr == nil {
			s.hits++
			s.mu.Unlock()
			return raw, true
		}
	}
	// Unreadable or failed validation: drop it so the next Put republishes.
	s.corrupt++
	s.misses++
	s.dropLocked(id)
	s.mu.Unlock()
	return nil, false
}

// Put stores the encoded entry under id, evicting LRU entries to stay under
// the cap. Invalid encodings and entries larger than the cap are rejected
// (false) — a shard never stores bytes it could not later validate.
func (s *ShardStore) Put(id string, enc []byte) bool {
	if _, err := decodeEntry(enc); err != nil {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return false
	}
	if int64(len(enc)) > s.cap {
		s.mu.Lock()
		s.rejected++
		s.mu.Unlock()
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Evict before publishing so the cap holds on disk at every instant. The
	// entry fits the cap, so the evictions never reach it.
	s.insert(id, int64(len(enc)))
	if publish(s.dir, s.path(id), enc) != nil {
		// The file of the entry being replaced, if any, is stale now: drop
		// it with the entry, so nothing outside the index outlives the
		// failure.
		s.dropLocked(id)
		return false
	}
	s.puts++
	return true
}

// Delete removes the entry for id (a client detected corruption end-to-end).
func (s *ShardStore) Delete(id string) {
	s.mu.Lock()
	s.dropLocked(id)
	s.mu.Unlock()
}

// Bytes returns the shard's current resident size.
func (s *ShardStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Len returns the shard's current entry count.
func (s *ShardStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Counters returns a snapshot of the shard's lifetime counters, in the same
// namespace style internal/obs uses.
func (s *ShardStore) Counters() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return map[string]int64{
		"shard/hits":      s.hits,
		"shard/misses":    s.misses,
		"shard/puts":      s.puts,
		"shard/evictions": s.evictions,
		"shard/corrupt":   s.corrupt,
		"shard/rejected":  s.rejected,
		"shard/bytes":     s.bytes,
		"shard/entries":   int64(s.lru.Len()),
	}
}

// ShardServer exposes a ShardStore over the build farm's HTTP cache
// protocol:
//
//	GET    /entry/<id>  → 200 raw encoded entry | 404
//	PUT    /entry/<id>  → 204 stored | 400 invalid or over-cap entry
//	DELETE /entry/<id>  → 204
//	GET    /statz       → 200 JSON counters
//
// Entry ids are hex content addresses; anything else is rejected before it
// can touch the filesystem.
type ShardServer struct {
	store *ShardStore
}

// NewShardServer wraps store in the HTTP cache protocol.
func NewShardServer(store *ShardStore) *ShardServer {
	return &ShardServer{store: store}
}

// Store returns the underlying shard store.
func (h *ShardServer) Store() *ShardStore { return h.store }

// maxEntryUpload bounds one PUT body; entries are artifact-sized, far below
// this, so the limit only stops hostile or accidental floods.
const maxEntryUpload = 256 << 20

func validEntryID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func (h *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/statz" && r.Method == http.MethodGet {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h.store.Counters())
		return
	}
	id, ok := strings.CutPrefix(r.URL.Path, "/entry/")
	if !ok || !validEntryID(id) {
		http.Error(w, "bad entry path", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		raw, ok := h.store.Get(id)
		if !ok {
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(raw)
	case http.MethodPut:
		// Content-Length, which clients send with an entry, sizes the read;
		// it is a hint, and the bound holds on the bytes read.
		var body bytes.Buffer
		if n := r.ContentLength; n > 0 && n <= maxEntryUpload {
			body.Grow(int(n) + bytes.MinRead) // MinRead spare: ReadFrom meets EOF without regrowing
		}
		_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, maxEntryUpload))
		enc := body.Bytes()
		if err != nil {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if !h.store.Put(id, enc) {
			http.Error(w, "entry rejected (invalid or over cap)", http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		h.store.Delete(id)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
