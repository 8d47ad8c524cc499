package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"outliner/internal/artifact"
	"outliner/internal/cache"
	"outliner/internal/fault"
	"outliner/internal/frontend"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
)

// BuildCache is the pipeline's handle on the content-addressed incremental
// build cache (internal/cache). A nil *BuildCache is valid and always
// misses — the same nil-safety contract obs.Tracer follows. Three per-module
// stages are cached, iface, llir and machine; each declares its key's input
// and Config projection (see stage), and runStage serves them all.
// Post-irlink whole-program stages are deliberately uncached: they consume
// the merged program, whose content hash changes whenever any module
// changes, so a cache entry could never be reused across edits.
type BuildCache struct {
	c *cache.Cache
	// fault arms the ArtifactDecode injection point (an injected decoder
	// rejection, degrading to a miss). nil when the build runs clean.
	fault *fault.Injector
}

// OpenBuildCache returns the cache for cfg.CacheDir, or nil (a valid
// always-miss cache) when no cache directory is configured. A clean build
// gets the process-shared handle, and with it the handle's single flight
// and any remote tier a daemon attached. A faulted build gets a private
// handle with a flight of its own and no remote tier: injected I/O errors
// and corruption must not leak into concurrent clean builds of the same
// directory, and a faulted build's artifacts must never be shared through a
// flight.
func OpenBuildCache(cfg Config) (*BuildCache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	if cfg.Fault != nil {
		c, err := cache.Open(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		c.SetFault(cfg.Fault)
		return &BuildCache{c: c, fault: cfg.Fault}, nil
	}
	c, err := cache.Shared(cfg.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	return &BuildCache{c: c}, nil
}

func (bc *BuildCache) enabled() bool { return bc != nil && bc.c != nil }

// SourceHash fingerprints one module's source content (name plus files in
// deterministic order).
func SourceHash(src Source) string {
	h := cache.NewHasher()
	h.WriteString(src.Name)
	for _, nf := range sortedFileList(src.Files) {
		h.WriteString(nf.name)
		h.WriteString(nf.text)
	}
	return h.Sum()
}

// ModuleKeys holds the per-module digests one build's key computations
// share: each module's source content is hashed exactly once, and each
// module's exported interface is digested exactly once, no matter how many
// importers fold them into their keys.
type ModuleKeys struct {
	// Src[i] is SourceHash of module i — the full content fingerprint.
	Src []string
	// Iface[i] is artifact.InterfaceDigest of module i's encoded stub — the
	// dependency fingerprint importers see. Body edits leave it unchanged.
	Iface []string
}

// ComputeModuleKeys derives the digest table of a build from its parsed
// modules — the table Build itself assembles from the iface stage without
// parsing unchanged modules. The cost is recorded under cache/key_hash_ns.
func ComputeModuleKeys(sources []Source, parsed [][]*frontend.File, tr *obs.Tracer) *ModuleKeys {
	start := time.Now()
	keys := &ModuleKeys{Src: make([]string, len(sources)), Iface: make([]string, len(sources))}
	for i, src := range sources {
		keys.Src[i] = SourceHash(src)
		keys.Iface[i] = artifact.InterfaceDigest(artifact.EncodeStub(frontend.NewStub(parsed[i]...)))
	}
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	return keys
}

// llirInput scopes module self's dependency fingerprint to its imports'
// exported interfaces: its own sources in full plus only the interface
// digests of the other modules, in module order.
func llirInput(self int, keys *ModuleKeys) string {
	h := cache.NewHasher().WriteString(keys.Src[self])
	for j, d := range keys.Iface {
		if j != self {
			h.WriteString(d)
		}
	}
	return h.Sum()
}

// machineInput hashes what the default pipeline's per-module codegen+outline
// consumes besides config: the module's stored pre-flavour encoding (the
// bytes as stored, never a re-encoding), whether the ObjC flavour will be
// applied to it, and the cross-module-referenced symbols the merge passes
// must keep.
func machineInput(u *lowered, crossRefs map[string]bool) string {
	h := cache.NewHasher().Write(u.stored())
	if u.objc {
		h.WriteString("objc")
	}
	if len(crossRefs) > 0 {
		// Only the refs that name this module's functions influence the
		// stage; sorting keeps the hash independent of map order.
		var keep []string
		for _, name := range u.summary().Funcs {
			if crossRefs[name] {
				keep = append(keep, name)
			}
		}
		sort.Strings(keep)
		h.WriteString("keep")
		for _, s := range keep {
			h.WriteString(s)
		}
	}
	return h.Sum()
}

// Cache counters. Every lookup counts a probe and then exactly one of hit
// (a stored entry decoded into a usable artifact) or miss (absent entry, or
// a corrupted one — additionally counted under cache/corrupt).
func cacheProbe(tr *obs.Tracer, stage string) {
	tr.Add("cache/probes", 1)
	tr.Add("cache/"+stage+"/probes", 1)
}

func cacheHit(tr *obs.Tracer, stage string, n int) {
	tr.Add("cache/hits", 1)
	tr.Add("cache/"+stage+"/hits", 1)
	tr.Add("cache/bytes_read", int64(n))
}

func cacheMiss(tr *obs.Tracer, stage string, corrupt bool) {
	tr.Add("cache/misses", 1)
	tr.Add("cache/"+stage+"/misses", 1)
	if corrupt {
		tr.Add("cache/corrupt", 1)
	}
}

func cacheStore(tr *obs.Tracer, stage string, n int) {
	tr.Add("cache/stores", 1)
	tr.Add("cache/bytes_written", int64(n))
}

// probeCounters mirrors what a disk or remote operation survived — retries, a
// failed corrupt-entry deletion, a degraded-over I/O or shard error — into the
// build's counters (-summary's resilience section). Zero-valued fields add
// nothing, so clean builds keep clean counter sets.
func probeCounters(tr *obs.Tracer, pr cache.Probe) {
	if pr.Retries > 0 {
		tr.Add("cache/retries", int64(pr.Retries))
	}
	if pr.RemoveErr != nil {
		tr.Add("cache/remove_failed", 1)
	}
	if pr.IOErr != nil {
		tr.Add("cache/io_errors", 1)
	}
	if pr.RemoteErr != nil {
		tr.Add("cache/remote_errors", 1)
	}
}

// tierCounter attributes a hit to the tier that served it ("memory", "disk",
// "remote-shard-<n>"), the -summary scoreboard's per-tier breakdown.
func tierCounter(tr *obs.Tracer, tier string) {
	if tier != "" {
		tr.Add("cache/tier/"+tier+"/hits", 1)
	}
}

// Single-flight counters. computes counts closures that actually ran the
// stage (the dedupe test's strict equation: computes == unique stage keys);
// deduped counts builds that consumed another build's in-flight result.
func flightCompute(tr *obs.Tracer, stage string) {
	tr.Add("flight/computes", 1)
	tr.Add("flight/"+stage+"/computes", 1)
}

func flightDeduped(tr *obs.Tracer, stage string) {
	tr.Add("flight/deduped", 1)
	tr.Add("flight/"+stage+"/deduped", 1)
}

// decodeFault consults the ArtifactDecode injection point for key; a non-nil
// result models the decoder rejecting the artifact (degrades to a miss).
func (bc *BuildCache) decodeFault(key cache.Key) error {
	return bc.fault.MaybeError(fault.ArtifactDecode, key.Stage+"/"+key.Input)
}

// runStage is the one path every cached stage takes: probe the cache and
// decode; on a miss (an absent, damaged or undecodable entry) compute, encode
// and publish through the handle's single flight, so concurrent builds
// sharing the handle compute each key once and every waiter decodes a private
// copy of the shared bytes. bc must be enabled.
//
// sp is the stage's "cache <stage> <module>" span; runStage records hit and
// tier on it and ends it when the probe is over, before any computing.
// compute runs at most once per call. A cancelled build publishes nothing.
func runStage[T any](ctx context.Context, bc *BuildCache, tr *obs.Tracer, key cache.Key, sp *obs.Span,
	decode func([]byte) (T, error), compute func() (T, error), encode func(T) []byte) (T, error) {
	var zero T
	stage := key.Stage
	cacheProbe(tr, stage)
	data, ok, pr := bc.c.GetProbeCtx(ctx, key)
	probeCounters(tr, pr)
	if ok {
		derr := bc.decodeFault(key)
		var v T
		if derr == nil {
			v, derr = decode(data)
		}
		if derr == nil {
			cacheHit(tr, stage, len(data))
			tierCounter(tr, pr.Tier)
			sp.Arg("hit", true).Arg("tier", pr.Tier).End()
			return v, nil
		}
	}
	cacheMiss(tr, stage, ok || pr.Corrupt)
	sp.Arg("hit", false).End()

	// The flight's currency is the encoded artifact, so no mutable structure
	// is ever shared across builds.
	var led bool
	var v T
	enc, shared, err := bc.c.Flight().Do(key, func() ([]byte, error) {
		// A cancelled leader must not compute or publish: returning the
		// context error here makes flight.Do hand waiters ErrFlightAborted
		// while this build reports its own cancellation.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		// Re-probe under the flight: an earlier leader may have published and
		// left the group between this build's probe and its turn here. Not
		// after an undecodable entry, which the probe would only find again:
		// that one is computed afresh and published over.
		if !ok {
			if data, ok, _ := bc.c.GetProbeCtx(ctx, key); ok {
				return data, nil
			}
		}
		flightCompute(tr, stage)
		var err error
		if v, err = compute(); err == nil {
			// Cancelled mid-compute: discard the result unpublished so a later
			// clean build can never observe a cancelled build's artifact.
			err = ctx.Err()
		}
		if err != nil {
			return nil, err
		}
		enc := encode(v)
		probeCounters(tr, bc.c.PutProbeCtx(ctx, key, enc))
		cacheStore(tr, stage, len(enc))
		led = true
		return enc, nil
	})
	if shared {
		flightDeduped(tr, stage)
	}
	if err != nil {
		return zero, err
	}
	if led {
		// This build led the flight: return what it computed directly.
		return v, nil
	}
	if v, derr := decode(enc); derr == nil {
		return v, nil
	}
	// The shared bytes failed this build's decode. compute has not run in
	// this build, so computing privately is safe — the degraded path of last
	// resort; the leader already published, so nothing is re-published.
	return compute()
}

// moduleIface is the iface stage's result for one module.
type moduleIface struct {
	stub *frontend.Stub
	// enc is the encoded stub (nil when no cache is configured).
	enc []byte
	// files is the module's AST when this build had to parse it for the
	// stub; the llir stage type-checks the same files instead of reparsing.
	files []*frontend.File
}

// machineCode is the machine stage's artifact: a module's machine program and
// the outlining statistics that produced it (nil when outlining did not run).
type machineCode struct {
	prog  *mir.Program
	stats *outline.Stats
}
