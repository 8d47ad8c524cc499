// Package cache is the content-addressed incremental build cache: a two-tier
// (in-memory + on-disk) store of serialized build artifacts keyed by
// (stage, input-content hash, stage-relevant config fingerprint, schema
// version).
//
// Design rules, in priority order:
//
//   - Correctness over reuse. A key must capture everything that can change
//     the artifact; anything doubtful belongs in the key. The cache itself
//     never judges relevance — callers derive Input/Config hashes.
//   - A damaged cache is an empty cache. Torn writes, truncation, bit flips,
//     or a foreign file under the cache directory all surface as a miss
//     (and the bad entry is discarded), never as an error or a bad artifact.
//     Disk entries carry a magic, an explicit payload length, and a SHA-256
//     checksum; writes go to a temp file first and are published by an
//     atomic rename, so a crash mid-write leaves no half-entry behind.
//   - Concurrency-safe. Parallel build workers probe and publish entries
//     concurrently; same-key racing writers are benign because the pipeline
//     is deterministic — both write identical bytes and rename wins-last.
//
// The in-memory tier makes repeated in-process builds (the experiment
// sweeps) hit at memory speed; the on-disk tier under -cache-dir carries
// warm starts across processes. Processes sharing a directory share one
// in-memory tier via Shared. An optional third tier (SetRemote) shares
// artifacts across machines: a sharded remote cache speaking ShardServer's
// HTTP protocol, with every shard an LRU-capped instance of the same disk
// entry format. Each handle's Flight adds the single-flight layer on top, so
// concurrent builds that miss on the same key compute it once.
package cache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"outliner/internal/fault"
)

// Key identifies one artifact. Input is a hex content hash produced by the
// caller (see Hasher), Config a deterministic fingerprint of the
// stage-relevant configuration; Stage namespaces pipeline stages and Schema
// is the artifact codec's schema version.
type Key struct {
	Stage  string
	Input  string
	Config string
	Schema int
}

// id collapses the key into the content address entries are stored under.
func (k Key) id() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d", k.Stage, k.Input, k.Config, k.Schema)
	return hex.EncodeToString(h.Sum(nil))
}

// Hasher accumulates content into a hex digest for Key.Input/Key.Config.
type Hasher struct {
	h hash.Hash
	// buf carries strings into h: converting one to []byte for the
	// interface call would copy it to the heap.
	buf [256]byte
}

// NewHasher returns an empty content hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

// WriteString adds s (with a terminator so concatenations cannot collide).
func (h *Hasher) WriteString(s string) *Hasher {
	for len(s) > 0 {
		n := copy(h.buf[:], s)
		h.h.Write(h.buf[:n])
		s = s[n:]
	}
	h.buf[0] = 0
	h.h.Write(h.buf[:1])
	return h
}

// Write adds raw bytes.
func (h *Hasher) Write(b []byte) *Hasher {
	h.h.Write(b)
	return h
}

// Sum returns the accumulated hex digest.
func (h *Hasher) Sum() string { return hex.EncodeToString(h.h.Sum(nil)) }

// HashBytes returns the hex digest of b.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// memLimitBytes bounds the in-memory tier. Once exceeded, new entries go to
// disk only — a simple deterministic bound instead of an eviction policy;
// long experiment sweeps stay within a fixed footprint.
const memLimitBytes = 256 << 20

// Cache is one tiered artifact store (memory + disk, plus an optional
// sharded remote tier). The zero value and nil are valid always-miss caches.
type Cache struct {
	dir string

	// Injectable seams for the fault-tolerance layer: sleep replaces
	// time.Sleep in retry backoff, remove replaces os.Remove for damaged
	// entries, and fault arms deterministic fault injection (see SetFault).
	// All nil in production use.
	sleep  func(time.Duration)
	remove func(string) error
	fault  *fault.Injector

	// remote is the optional third tier: a sharded remote cache shared by a
	// fleet of builds (see SetRemote). Lookup order is memory → disk →
	// remote; remote hits are promoted into the local tiers.
	remote *Remote

	// flight dedupes the concurrent misses of the builds sharing this
	// handle (see Flight).
	flight *Flight

	mu       sync.Mutex
	mem      map[string][]byte
	memBytes int
}

// Open creates (if needed) and opens the on-disk tier under dir with a fresh
// in-memory tier. Most callers want Shared instead.
func Open(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return &Cache{dir: dir, flight: newFlight(), mem: make(map[string][]byte)}, nil
}

// Flight returns the handle's single-flight group: the handle's builds share
// it, as they share its tiers.
func (c *Cache) Flight() *Flight { return c.flight }

var (
	sharedMu sync.Mutex
	shared   = map[string]*Cache{}
)

// Shared returns the process-wide Cache for dir, creating it on first use.
// Sharing the instance shares the in-memory tier, so every build in a
// process (an experiment sweep, a test run) reuses artifacts at memory
// speed, and its flight, so concurrent builds compute a missed key once.
func Shared(dir string) (*Cache, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if c, ok := shared[abs]; ok {
		return c, nil
	}
	c, err := Open(abs)
	if err != nil {
		return nil, err
	}
	shared[abs] = c
	return c, nil
}

// Forget drops the process-wide instance for dir (if any). Benchmarks and
// tests that create many throwaway cache directories call it after removing
// the directory so the registry does not retain their memory tiers.
func Forget(dir string) {
	if abs, err := filepath.Abs(dir); err == nil {
		sharedMu.Lock()
		delete(shared, abs)
		sharedMu.Unlock()
	}
}

// SetRemote attaches (or detaches, with nil) the sharded remote tier. The
// remote tier obeys the same contract as the others: it can only ever turn a
// miss into a hit, never a build into a failure — a dead or corrupt shard
// degrades to a miss. Attaching a remote to a Shared cache attaches it for
// every build in the process using that directory; that is exactly what a
// compile daemon wants, and exactly why faulted builds (which open private
// handles) never see it.
func (c *Cache) SetRemote(r *Remote) {
	if c != nil {
		c.mu.Lock()
		c.remote = r
		c.mu.Unlock()
	}
}

// getRemote reads the remote tier under the lock: a daemon detaches it while
// builds may still probe.
func (c *Cache) getRemote() *Remote {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// DropMemory empties the in-memory tier, leaving disk entries intact.
// Tests use it to simulate a fresh process against a warm directory.
func (c *Cache) DropMemory() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mem = make(map[string][]byte)
	c.memBytes = 0
	c.mu.Unlock()
}

// Get returns the stored artifact for k. The second result reports whether a
// valid entry was found; corrupted disk entries are deleted and reported as
// a miss. The returned slice is shared — callers must treat it as read-only.
func (c *Cache) Get(k Key) ([]byte, bool) {
	data, ok, _ := c.GetProbeCtx(context.Background(), k)
	return data, ok
}

// GetProbeCtx is Get under a context, plus a Probe describing what the lookup
// survived: transient-I/O retries, corruption, a failed delete of the damaged
// entry. Every failure mode degrades to a miss — the probe exists for
// telemetry, not control flow. Tiers are consulted hottest-first (memory,
// disk, remote shard) and the probe's Tier names the one that served a hit.
// A done context aborts disk retry loops between attempts and cancels
// in-flight remote shard requests, so a cancelled build stops paying cache
// latency promptly. Cancellation is just one more degraded mode — the lookup
// reports a miss, never an error.
func (c *Cache) GetProbeCtx(ctx context.Context, k Key) ([]byte, bool, Probe) {
	var pr Probe
	if c == nil {
		return nil, false, pr
	}
	id := k.id()
	c.mu.Lock()
	data, ok := c.mem[id]
	c.mu.Unlock()
	if ok {
		pr.Tier = "memory"
		return data, true, pr
	}
	if c.dir != "" {
		if payload, ok := c.getDisk(ctx, id, &pr); ok {
			pr.Tier = "disk"
			c.remember(id, payload)
			return payload, true, pr
		}
	}
	if remote := c.getRemote(); remote != nil {
		raw, shard, ok, rpr := remote.get(ctx, id)
		pr.Merge(rpr)
		if ok {
			payload, err := decodeEntry(raw)
			if err != nil {
				// The shard served damaged bytes (or they were damaged in
				// flight): delete the entry so the rebuild republishes a good
				// one end-to-end, the disk tier's exact contract.
				pr.Corrupt = true
				remote.drop(ctx, shard, id)
			} else {
				// Promote into the local tiers so the next probe is local;
				// a failed disk promotion only costs the promotion.
				if c.dir != "" {
					var ppr Probe
					if err := c.writeEntry(ctx, id, [][]byte{raw}, &ppr); err == nil {
						pr.Retries += ppr.Retries
					}
				}
				c.remember(id, payload)
				pr.Tier = TierName(shard)
				return payload, true, pr
			}
		}
	}
	return nil, false, pr
}

// getDisk is the disk-tier half of GetProbeCtx: read, validate, and on damage
// delete-and-miss.
func (c *Cache) getDisk(ctx context.Context, id string, pr *Probe) ([]byte, bool) {
	path := c.entryPath(id)
	raw, found, err := c.readEntry(ctx, id, path, pr)
	if err != nil {
		// Unlike absence, a failed read is a degraded miss worth reporting.
		pr.IOErr = err
	}
	if !found {
		return nil, false
	}
	raw = c.fault.MaybeCorrupt(fault.CacheRead, id, raw)
	payload, err := decodeEntry(raw)
	if err != nil {
		// Treat damage as absence; removing the entry lets the rebuild
		// republish a good one. A failed delete leaves the bad entry behind
		// (to be rediscovered next probe) — record it rather than lose it.
		pr.Corrupt = true
		if rerr := c.removeEntry(path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			pr.RemoveErr = rerr
		}
		return nil, false
	}
	return payload, true
}

// Put stores data under k in both tiers. The cache takes ownership of data.
// Disk-tier failures are swallowed: a cache that cannot persist degrades to
// the memory tier rather than failing the build.
func (c *Cache) Put(k Key, data []byte) {
	c.PutProbeCtx(context.Background(), k, data)
}

// PutProbeCtx is Put under a context, plus a Probe describing retries and the
// final disk (or remote-shard) error the publication degraded over, if any.
// The entry is published to every configured tier: memory, disk, and the
// owning remote shard — any tier can fail independently without failing the
// others. A context that is already done refuses the publication entirely —
// no tier, not even memory, sees the entry — which is the cache-side half of
// the "a cancelled build never publishes" contract (the pipeline also gates
// its publications). A context that fires mid-publication aborts the
// remaining retries and tiers; the atomic rename protocol means a torn
// publication is impossible either way.
func (c *Cache) PutProbeCtx(ctx context.Context, k Key, data []byte) Probe {
	var pr Probe
	if c == nil {
		return pr
	}
	if err := ctx.Err(); err != nil {
		pr.IOErr = err
		return pr
	}
	id := k.id()
	c.store(id, data)
	remote := c.getRemote()
	if c.dir == "" && remote == nil {
		return pr
	}
	fr := frameEntry(data)
	if c.dir != "" {
		if err := c.writeEntry(ctx, id, fr, &pr); err != nil {
			pr.IOErr = err
		}
	}
	if remote != nil {
		pr.Merge(remote.put(ctx, id, fr))
	}
	return pr
}

// remember is the Get path's insert-only promotion of a disk entry into the
// memory tier.
func (c *Cache) remember(id string, data []byte) {
	c.mu.Lock()
	if _, ok := c.mem[id]; !ok && c.memBytes+len(data) <= memLimitBytes {
		c.mem[id] = data
		c.memBytes += len(data)
	}
	c.mu.Unlock()
}

// store is the Put path: it replaces any existing memory entry, so a
// republish after a corrupt payload was promoted does not leave the bad
// bytes shadowing the good ones.
func (c *Cache) store(id string, data []byte) {
	// The tier keeps an entry for the life of the process, so it keeps the
	// bytes and not the spare capacity an append-grown buffer carries with
	// them. The pipeline's artifacts arrive exactly sized (artifact's
	// encoders return a cap == len copy); a caller's own buffer may not.
	if cap(data)-len(data) > len(data)/8 {
		data = bytes.Clone(data)
	}
	c.mu.Lock()
	if old, ok := c.mem[id]; ok {
		c.memBytes -= len(old)
		delete(c.mem, id)
	}
	if c.memBytes+len(data) <= memLimitBytes {
		c.mem[id] = data
		c.memBytes += len(data)
	}
	c.mu.Unlock()
}

func (c *Cache) entryPath(id string) string {
	return filepath.Join(c.dir, id+".art")
}

// Disk entry layout: magic, little-endian payload length, payload, SHA-256
// of the payload. decodeEntry rejects anything that does not parse exactly.
var entryMagic = [4]byte{'S', 'L', 'C', '1'}

// frameEntry returns payload's entry as the three slices that are written one
// after another — header, payload, checksum — so framing never copies the
// payload.
func frameEntry(payload []byte) [][]byte {
	head := binary.LittleEndian.AppendUint64(append(make([]byte, 0, 12), entryMagic[:]...), uint64(len(payload)))
	sum := sha256.Sum256(payload)
	return [][]byte{head, payload, sum[:]}
}

func decodeEntry(raw []byte) ([]byte, error) {
	if len(raw) < 4+8+sha256.Size {
		return nil, errors.New("cache: entry too short")
	}
	if [4]byte(raw[:4]) != entryMagic {
		return nil, errors.New("cache: bad entry magic")
	}
	n := binary.LittleEndian.Uint64(raw[4:12])
	if n != uint64(len(raw)-4-8-sha256.Size) {
		return nil, errors.New("cache: entry length mismatch")
	}
	payload := raw[12 : 12+n]
	sum := sha256.Sum256(payload)
	if [sha256.Size]byte(raw[12+n:]) != sum {
		return nil, errors.New("cache: entry checksum mismatch")
	}
	return payload, nil
}
