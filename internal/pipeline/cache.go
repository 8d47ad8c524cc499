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
	"outliner/internal/layout"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/outline"
)

// BuildCache is the pipeline's handle on the content-addressed incremental
// build cache (internal/cache). A nil *BuildCache is valid and always
// misses, so call sites stay unconditional — the same nil-safety contract
// obs.Tracer follows.
//
// Three per-module stages are cached, all through runStage:
//
//   - stage "iface" (both pipelines): the module's exported-interface stub
//     (frontend.Stub via artifact.EncodeStub). Input: the module's own
//     sources, nothing else — so an unchanged module is never even lexed.
//     The hash of the stored bytes is the module's interface digest.
//   - stage "llir" (both pipelines): the lowered LLIR module produced by the
//     per-module frontend→SIL→LLIR stage, behind a summary header. Input: the
//     module's own sources plus every other module's interface digest
//     (imports expose stub declarations, not bodies), so a body-only edit in
//     one module leaves every other module's entry valid. Config: only the
//     fields that stage reads — SILOutline, SpecializeClosures, Verify — so
//     builds differing in backend-only knobs (outlining rounds, merge passes,
//     pipeline choice) share frontend artifacts.
//   - stage "machine" (default pipeline only): the per-module machine
//     program after codegen and per-module outlining, plus its outlining
//     stats. Input: the stored llir bytes as they are (never a re-encoding),
//     the ObjC-flavour bit, and the cross-module-referenced symbols the merge
//     passes must preserve. Config: MergeFunctions, FMSA, OutlineRounds,
//     FlatOutlineCost, Verify.
//
// Post-irlink whole-program stages are deliberately uncached: they consume
// the merged program, whose content hash changes whenever any module
// changes, so a cache entry could never be reused across edits — it would
// only add encode/hash overhead to every build.
type BuildCache struct {
	c *cache.Cache
	// flight dedupes identical in-flight stage computations across the
	// concurrent builds sharing cfg.Flight (a compile daemon). nil outside
	// service mode and on faulted builds.
	flight *cache.Flight
	// fault arms the ArtifactDecode injection point (an injected decoder
	// rejection, degrading to a miss). nil when the build runs clean.
	fault *fault.Injector
}

// OpenBuildCache returns the cache for cfg.CacheDir, or nil (a valid
// always-miss cache) when no cache directory is configured. A faulted build
// gets a private cache handle, never the process-shared one — and neither the
// remote tier nor the single-flight layer: injected I/O errors and corruption
// must not leak into concurrent clean builds of the same directory, and a
// faulted build's artifacts must never be shared through a flight group.
func OpenBuildCache(cfg Config) (*BuildCache, error) {
	if cfg.CacheDir == "" {
		return nil, nil
	}
	var c *cache.Cache
	var err error
	if cfg.Fault != nil {
		c, err = cache.Open(cfg.CacheDir)
		if err == nil {
			c.SetFault(cfg.Fault)
		}
	} else {
		c, err = cache.Shared(cfg.CacheDir)
		if err == nil && cfg.Remote != nil {
			c.SetRemote(cfg.Remote)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	bc := &BuildCache{c: c, fault: cfg.Fault}
	if cfg.Fault == nil {
		bc.flight = cfg.Flight
	}
	return bc, nil
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
	ifaces := make([]*moduleIface, len(sources))
	for i, src := range sources {
		ifaces[i] = &moduleIface{srcHash: SourceHash(src), enc: artifact.EncodeStub(frontend.NewStub(parsed[i]...))}
	}
	keys := moduleKeys(ifaces)
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	return keys
}

// moduleKeys assembles the digest table from the iface stage's results.
func moduleKeys(ifaces []*moduleIface) *ModuleKeys {
	keys := &ModuleKeys{
		Src:   make([]string, len(ifaces)),
		Iface: make([]string, len(ifaces)),
	}
	for i, mi := range ifaces {
		keys.Src[i] = mi.srcHash
		keys.Iface[i] = artifact.InterfaceDigest(mi.enc)
	}
	return keys
}

// llirFingerprint covers exactly the Config fields the frontend→LLIR stage
// reads. Adding a field that changes per-module lowering MUST extend this
// string (append-only; the shape change alone invalidates old entries).
func llirFingerprint(cfg Config) string {
	return fmt.Sprintf("siloutline=%t specclosures=%t verify=%t",
		cfg.SILOutline, cfg.SpecializeClosures, cfg.Verify) + faultFingerprint(cfg)
}

// machineFingerprint covers the Config fields the default pipeline's
// per-module codegen+outline stage reads. OnVerifyFailure participates
// because a degraded (rolled-back) artifact is a different program than an
// abort-mode build would have produced. KeepGoing does not: it only changes
// error reporting, never a successful artifact.
func machineFingerprint(cfg Config) string {
	onvf := cfg.OnVerifyFailure
	if onvf == "" {
		onvf = outline.VerifyAbort
	}
	return fmt.Sprintf("merge=%t fmsa=%t rounds=%d flat=%t verify=%t onvf=%s",
		cfg.MergeFunctions, cfg.FMSA, cfg.OutlineRounds, cfg.FlatOutlineCost, cfg.Verify, onvf) +
		faultFingerprint(cfg) + profileFingerprint(cfg) + layoutFingerprint(cfg)
}

// layoutFingerprint keys machine-stage entries by the layout policy. The
// machine stage itself is per-module and pre-link — the layout pass runs
// after it and cannot change its artifacts — but the policy joins the key
// anyway, like prof=/coldonly= do, so a future per-module layout hook can
// never silently share entries across policies. An unset (or explicit none)
// policy contributes nothing, keeping earlier releases' keys intact.
func layoutFingerprint(cfg Config) string {
	if cfg.Layout == "" || cfg.Layout == layout.None {
		return ""
	}
	return " layout=" + cfg.Layout
}

// profileFingerprint keys machine-stage entries by profile identity and
// cold-only policy. The profile content digest (not a file name) identifies
// the profile, so two different profiles can never share entries; an
// unprofiled, ungated build contributes nothing, keeping its keys identical
// to every earlier release's.
func profileFingerprint(cfg Config) string {
	if cfg.Profile == nil && !cfg.OutlineColdOnly {
		return ""
	}
	return fmt.Sprintf(" prof=%s coldonly=%t coldthr=%d",
		cfg.Profile.Digest(), cfg.OutlineColdOnly, cfg.OutlineColdThreshold)
}

// faultFingerprint keys cache entries by the fault-injection schedule. Any
// armed injector — even rate 0 — gets its own key space: a faulted build may
// cache artifacts shaped by injected corruption (a rolled-back outline, a
// degraded merge), and a clean build must never consume them, nor publish
// entries a replaying chaos seed would then unexpectedly hit.
func faultFingerprint(cfg Config) string {
	if cfg.Fault == nil {
		return ""
	}
	// String covers both schedule forms: "seed=N rate=R" for chaos injectors
	// and the sorted point list for scripted ones.
	return " fault=" + cfg.Fault.String()
}

// ifaceKey keys a module's stub by its own source content alone.
func ifaceKey(srcHash string, cfg Config) cache.Key {
	return cache.Key{
		Stage:  "iface",
		Input:  srcHash,
		Config: faultFingerprint(cfg),
		Schema: artifact.SchemaVersion,
	}
}

// llirKey scopes module self's dependency fingerprint to its imports'
// exported interfaces: the input hash covers self's own sources in full plus
// only the interface digests of the other modules, in module order.
func llirKey(self int, keys *ModuleKeys, cfg Config) cache.Key {
	h := cache.NewHasher().WriteString(keys.Src[self])
	for j, d := range keys.Iface {
		if j != self {
			h.WriteString(d)
		}
	}
	return cache.Key{
		Stage:  "llir",
		Input:  h.Sum(),
		Config: llirFingerprint(cfg),
		Schema: artifact.SchemaVersion,
	}
}

// machineKey derives the default pipeline's per-module codegen+outline key
// from the module's stored pre-flavour encoding, whether the ObjC flavour
// will be applied to it, and the cross-module-referenced symbols the merge
// passes must keep.
func machineKey(u *lowered, crossRefs map[string]bool, cfg Config) cache.Key {
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
	return cache.Key{
		Stage:  "machine",
		Input:  h.Sum(),
		Config: machineFingerprint(cfg),
		Schema: artifact.SchemaVersion,
	}
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
// and publish — through the single-flight layer in service mode, so
// concurrent builds compute each key once and every waiter decodes a private
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

	publish := func() (T, []byte, error) {
		v, err := compute()
		if err == nil {
			// Cancelled mid-compute: discard the result unpublished so a later
			// clean build can never observe a cancelled build's artifact.
			err = ctx.Err()
		}
		if err != nil {
			return zero, nil, err
		}
		enc := encode(v)
		probeCounters(tr, bc.c.PutProbeCtx(ctx, key, enc))
		cacheStore(tr, stage, len(enc))
		return v, enc, nil
	}
	if bc.flight == nil {
		v, _, err := publish()
		return v, err
	}
	// Service mode. The flight's currency is the encoded artifact, so no
	// mutable structure is ever shared across builds.
	var led bool
	var v T
	enc, shared, err := bc.flight.Do(key, func() ([]byte, error) {
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
		var enc []byte
		var err error
		v, enc, err = publish()
		led = err == nil
		return enc, err
	})
	if shared {
		flightDeduped(tr, stage)
	}
	if err != nil {
		return zero, err
	}
	if led {
		// This build led the flight: return what it computed directly,
		// exactly the non-flight cold path.
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
	srcHash string
	stub    *frontend.Stub
	// enc is the encoded stub (nil when no cache is configured).
	enc []byte
	// files is the module's AST when this build had to parse it for the
	// stub; the llir stage type-checks the same files instead of reparsing.
	files []*frontend.File
}

// interfaceOf returns src's exported interface: the cached stub when src is
// unchanged, otherwise parsed from source (and published).
func (bc *BuildCache) interfaceOf(src Source, cfg Config, lane int) (*moduleIface, error) {
	tr := cfg.Tracer
	parse := func() (*moduleIface, error) {
		files, err := parseModule(src, tr)
		if err != nil {
			return nil, err
		}
		return &moduleIface{stub: frontend.NewStub(files...), files: files}, nil
	}
	if !bc.enabled() {
		return parse()
	}
	start := time.Now()
	srcHash := SourceHash(src)
	key := ifaceKey(srcHash, cfg)
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	mi, err := runStage(cfg.Ctx, bc, tr, key, tr.StartSpan("cache iface "+src.Name, lane),
		func(data []byte) (*moduleIface, error) {
			stub, err := artifact.DecodeStub(data)
			return &moduleIface{stub: stub, enc: data}, err
		},
		parse,
		func(mi *moduleIface) []byte {
			mi.enc = artifact.EncodeStub(mi.stub)
			return mi.enc
		})
	if err != nil {
		return nil, err
	}
	mi.srcHash = srcHash
	return mi, nil
}

// lower is CompileToLLIR behind the build cache. keys must be the build's
// digest table and self the index of src; files is src's AST when the iface
// stage parsed it (lower takes ownership), nil when it must be parsed on a
// miss. In the default pipeline a hit decodes only the summary header — the
// body waits for a machine-stage miss that may never come; the whole-program
// pipeline, whose IR link consumes every body, decodes it here in the
// parallel stage. Cold and warm paths yield identical modules, so the built
// image is byte-identical either way.
func (bc *BuildCache) lower(src Source, cfg Config, imports *frontend.Imports, self int, keys *ModuleKeys, files []*frontend.File, lane int) (*lowered, error) {
	tr := cfg.Tracer
	recompile := func() (*llir.Module, error) { return CompileToLLIR(src, cfg, imports) }
	compile := func() (*lowered, error) {
		u := &lowered{name: src.Name, objc: src.ObjC}
		var err error
		if files != nil {
			u.body, err = lowerToLLIR(src.Name, files, cfg, imports)
			files = nil
		} else {
			u.body, err = recompile()
		}
		return u, err
	}
	if !bc.enabled() {
		return compile()
	}
	start := time.Now()
	key := llirKey(self, keys, cfg)
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	// The span's body arg records whether lowering left a materialised body
	// behind: always on a miss, on a hit only for the whole-program pipeline.
	sp := tr.StartSpan("cache llir "+src.Name, lane).Arg("body", true)
	return runStage(cfg.Ctx, bc, tr, key, sp,
		func(data []byte) (*lowered, error) {
			u := &lowered{name: src.Name, objc: src.ObjC, enc: data, recompile: recompile}
			var err error
			if cfg.WholeProgram {
				tr.Add("cache/llir/bodies_decoded", 1)
				u.body, err = artifact.DecodeModule(data)
			} else if u.sum, err = artifact.DecodeSummary(data); err == nil {
				sp.Arg("body", false)
			}
			return u, err
		},
		compile,
		(*lowered).stored)
}

// machineCode is the machine stage's artifact: a module's machine program and
// the outlining statistics that produced it (nil when outlining did not run).
type machineCode struct {
	prog  *mir.Program
	stats *outline.Stats
}

// machine is the default pipeline's per-module codegen+outline stage behind
// the build cache. The key is derived from u's stored bytes before anything
// touches its body; a hit replays the outlining counters the skipped compute
// would have emitted, keeping counter-derived reports equal between cold and
// warm runs.
func (bc *BuildCache) machine(u *lowered, crossRefs map[string]bool, cfg Config, lane int, compute func() (*machineCode, error)) (*machineCode, error) {
	if !bc.enabled() {
		return compute()
	}
	tr := cfg.Tracer
	sp := tr.StartSpan("cache machine "+u.name, lane)
	return runStage(cfg.Ctx, bc, tr, machineKey(u, crossRefs, cfg), sp,
		func(data []byte) (*machineCode, error) {
			p, st, err := artifact.DecodeMachine(data)
			if err == nil && st != nil {
				// Re-emit the per-round counters the skipped compute would have,
				// so counter-derived reports (fig12's Table II, -summary's
				// convergence table) agree between cold and warm builds.
				// Discovery-internal counters (suffix-tree size, candidates
				// found/rejected) are not stored and stay absent on warm builds.
				for _, rs := range st.Rounds {
					outline.EmitRoundCounters(tr, rs)
				}
			}
			return &machineCode{prog: p, stats: st}, err
		},
		compute,
		func(mc *machineCode) []byte { return artifact.EncodeMachine(mc.prog, mc.stats) })
}
