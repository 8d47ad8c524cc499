// Package fault is the build pipeline's deterministic fault-injection
// framework: seed-driven fault points placed at the spots where a real build
// farm fails — cache disk I/O, worker task startup, per-function code
// generation, outlining rounds, artifact decoding — injecting panics, I/O
// errors, and corrupt bytes on a reproducible schedule.
//
// Determinism is the whole point. An injection decision is a pure hash of
// (seed, site, key) — never of wall-clock time, goroutine identity, or call
// order — so the same seed produces the same fault schedule at any -j, and a
// failing seed from the chaos soak replays exactly. Rates are probabilities
// over the hash space: rate 0.02 fires at roughly 2% of points.
//
// Two constructors exist:
//
//   - New(seed, rate): the chaos injector. Every point consults the hash.
//   - Exact(points...): a scripted injector that fires at exactly the listed
//     (site, key) points and nowhere else — what targeted tests use to, say,
//     corrupt outlining round 3 and nothing else.
//
// A nil *Injector is valid and never fires, so instrumented code needs no
// branches: the disabled path is one nil check per fault point.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Site names one class of fault point in the pipeline.
type Site string

const (
	// CacheRead covers the cache's disk-entry read path. Keys are
	// "<entry-id>#<attempt>" so retries re-roll the schedule.
	CacheRead Site = "cache/read"
	// CacheWrite covers the cache's temp-write/publish path, keyed like
	// CacheRead.
	CacheWrite Site = "cache/write"
	// WorkerTask fires at parallel worker task start: per-module pipeline
	// stages, keyed by module name ("parse <module>" for the parse stage), and
	// the whole-program opt loop, keyed "opt <function>".
	WorkerTask Site = "worker/task"
	// CodegenFunc fires at per-function code generation, keyed by function
	// name.
	CodegenFunc Site = "codegen/func"
	// OutlineRound fires after an outlining round's rewrites, keyed
	// "round:<n>"; a Corrupt decision mutates the just-outlined program so
	// the verifier (and the rollback machinery) have something real to catch.
	OutlineRound Site = "outline/round"
	// ArtifactDecode fires at cache-artifact decoding, keyed by cache stage
	// and entry; an injected error models a decoder rejection and degrades to
	// a miss.
	ArtifactDecode Site = "artifact/decode"
	// RemoteGet covers the sharded remote cache tier's fetch path — the
	// shard-kill injection site. Keys are "<entry-id>#<attempt>" like
	// CacheRead; an ErrorKind injection models a dead or flaky shard, a
	// CorruptKind injection damages the response bytes in flight.
	RemoteGet Site = "remote/get"
	// RemotePut covers the remote tier's publish path, keyed like RemoteGet.
	RemotePut Site = "remote/put"
	// WorkerHang fires at parallel worker task start like WorkerTask, but a
	// HangKind decision blocks the task until the build's context is
	// cancelled — the hung-compiler failure mode deadline propagation exists
	// to bound. Keyed by module name.
	WorkerHang Site = "worker/hang"
	// RemoteSlow models a shard that accepts the connection and then stalls:
	// a SlowKind decision makes the remote operation consume its full
	// per-operation timeout before failing, the shape that makes circuit
	// breakers worth their complexity. Keyed "<entry-id>#<attempt>".
	RemoteSlow Site = "remote/slow"
	// CancelStep fires at pipeline stage boundaries; a CancelKind decision
	// cancels the build's context right there (cancel-at-step-N), exercising
	// mid-build cancellation without a remote client. Keyed "step:<stage>".
	CancelStep Site = "cancel/step"
)

// Kind is what an armed fault point injects.
type Kind int

const (
	// None: the point does not fire.
	None Kind = iota
	// PanicKind: the point panics with a *Panic value.
	PanicKind
	// ErrorKind: the point returns a *Error (possibly transient).
	ErrorKind
	// CorruptKind: the point flips bytes (or, at OutlineRound, mutates the
	// program).
	CorruptKind
	// HangKind: the point blocks until the build's context is cancelled
	// (WorkerHang). Disruptive — see EnableDisruptive.
	HangKind
	// SlowKind: the point stalls for the caller's full operation timeout
	// before failing (RemoteSlow). Disruptive — see EnableDisruptive.
	SlowKind
	// CancelKind: the point cancels the build's context (CancelStep).
	// Disruptive — see EnableDisruptive.
	CancelKind
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case PanicKind:
		return "panic"
	case ErrorKind:
		return "error"
	case CorruptKind:
		return "corrupt"
	case HangKind:
		return "hang"
	case SlowKind:
		return "slow"
	case CancelKind:
		return "cancel"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// disruptive reports whether k stalls or cancels a build rather than
// failing a single operation. Disruptive kinds are opt-in for chaos
// injectors: a schedule that can hang requires the harness to hold a
// deadline, so New-style injectors skip them until EnableDisruptive.
func (k Kind) disruptive() bool {
	return k == HangKind || k == SlowKind || k == CancelKind
}

// Error is an injected I/O error. It unwraps to nothing — it is the leaf
// diagnostic — and errors.As against *fault.Error is how callers and tests
// recognize an injected failure in a build error chain.
type Error struct {
	Site Site
	Key  string
	// Transient marks errors the cache's retry loop should classify as
	// retryable (a flaky read) rather than fatal (a dead disk).
	Transient bool
}

func (e *Error) Error() string {
	mode := "fatal"
	if e.Transient {
		mode = "transient"
	}
	return fmt.Sprintf("fault: injected %s I/O error at %s (%s)", mode, e.Site, e.Key)
}

// Panic is the value injected panics carry; par's worker recovery wraps it in
// a *par.PanicError, keeping the site/key visible in the build diagnostic.
type Panic struct {
	Site Site
	Key  string
}

func (p *Panic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (%s)", p.Site, p.Key)
}

// At is one scripted fault point for Exact.
type At struct {
	Site Site
	Key  string
	Kind Kind
	// Transient applies to ErrorKind points.
	Transient bool
}

// Injector decides, deterministically, which fault points fire. The zero
// value and nil never fire.
type Injector struct {
	seed uint64
	rate float64

	script map[[2]string]At // non-nil: scripted mode, hash ignored

	// disruptive admits HangKind/SlowKind/CancelKind decisions on chaos
	// (hash-scheduled) injectors. Scripted injectors ignore it: an explicit
	// At point is its own opt-in.
	disruptive bool

	mu      sync.Mutex
	pending map[string]int64 // per-site injections since the last DrainCounters
}

// New returns a hash-scheduled injector: each (site, key) point fires with
// probability rate, injecting the kind its call site asks Fires about.
func New(seed uint64, rate float64) *Injector {
	return &Injector{seed: seed, rate: rate, pending: map[string]int64{}}
}

// Exact returns a scripted injector firing at exactly the listed points.
func Exact(points ...At) *Injector {
	inj := &Injector{script: make(map[[2]string]At, len(points)), pending: map[string]int64{}}
	for _, p := range points {
		inj.script[[2]string{string(p.Site), p.Key}] = p
	}
	return inj
}

// EnableDisruptive admits the disruptive kinds (hang, slow, cancel) on a
// chaos injector's schedule. They are off by default because a hash schedule
// that can hang a worker forever is only safe under a harness that holds a
// deadline — the resilience soaks do, the classic chaos soaks do not.
// Enabling changes which points fire, so it participates in String (and
// therefore in cache fingerprints). Returns the injector for chaining.
func (inj *Injector) EnableDisruptive() *Injector {
	if inj != nil {
		inj.disruptive = true
	}
	return inj
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv1a hashes s with FNV-1a (64-bit).
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll returns the point's decision hash: uniform over [0, 2^64).
func (inj *Injector) roll(site Site, key string) uint64 {
	return splitmix64(inj.seed ^ splitmix64(fnv1a(string(site))^splitmix64(fnv1a(key))))
}

// Fires reports whether the (site, key) point injects a fault of kind, and
// counts the injection when it does. A scripted injector fires exactly where
// its script names kind at the point. A chaos injector fires at its rate, and
// skips the disruptive kinds until EnableDisruptive; the decision does not
// depend on kind otherwise, so enabling disruption cannot shift the decisions
// of the other sites. Call sites that carry out the fault themselves — hang a
// worker, stall a shard, cancel a build, damage a program — ask Fires
// directly; MaybePanic, MaybeError and MaybeCorrupt are built on it.
func (inj *Injector) Fires(site Site, key string, kind Kind) bool {
	if inj == nil {
		return false
	}
	if inj.script != nil {
		if at, ok := inj.script[[2]string{string(site), key}]; !ok || at.Kind != kind {
			return false
		}
	} else {
		if kind.disruptive() && !inj.disruptive {
			return false
		}
		// The top 53 bits give an unbiased [0,1) fraction.
		if float64(inj.roll(site, key)>>11)/float64(uint64(1)<<53) >= inj.rate {
			return false
		}
	}
	inj.count(site)
	return true
}

// transient reports whether an ErrorKind injection at the point is transient;
// roughly half are, so retry loops see both outcomes.
func (inj *Injector) transient(site Site, key string) bool {
	if inj.script != nil {
		return inj.script[[2]string{string(site), key}].Transient
	}
	return splitmix64(inj.roll(site, key)+2)&1 == 0
}

// count records one injection for DrainCounters.
func (inj *Injector) count(site Site) {
	inj.mu.Lock()
	inj.pending[string(site)]++
	inj.mu.Unlock()
}

// DrainCounters returns per-site injection counts accrued since the previous
// drain (key "fault/<site>"), so several build stages can each mirror the
// injector's activity into their tracer without double counting.
func (inj *Injector) DrainCounters() map[string]int64 {
	out := map[string]int64{}
	if inj == nil {
		return out
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for site, n := range inj.pending {
		out["fault/"+site] = n
	}
	clear(inj.pending)
	return out
}

// String summarizes the injection schedule for diagnostics.
func (inj *Injector) String() string {
	if inj == nil {
		return "fault: disabled"
	}
	if inj.script != nil {
		keys := make([]string, 0, len(inj.script))
		for k := range inj.script {
			keys = append(keys, k[0]+"("+k[1]+")")
		}
		sort.Strings(keys)
		return fmt.Sprintf("fault: scripted %v", keys)
	}
	if inj.disruptive {
		return fmt.Sprintf("fault: seed=%d rate=%g disruptive", inj.seed, inj.rate)
	}
	return fmt.Sprintf("fault: seed=%d rate=%g", inj.seed, inj.rate)
}

// MaybePanic panics with a *Panic if the point is armed for a panic. Placed
// at worker task start and per-function codegen; the surrounding worker pool
// recovers it into a structured *par.PanicError.
func (inj *Injector) MaybePanic(site Site, key string) {
	if inj.Fires(site, key, PanicKind) {
		panic(&Panic{Site: site, Key: key})
	}
}

// MaybeError returns an injected *Error if the point is armed for one, nil
// otherwise.
func (inj *Injector) MaybeError(site Site, key string) error {
	if inj.Fires(site, key, ErrorKind) {
		return &Error{Site: site, Key: key, Transient: inj.transient(site, key)}
	}
	return nil
}

// MaybeCorrupt returns data with deterministically flipped bytes if the point
// is armed for corruption, data unchanged otherwise. Empty data has nothing to
// damage, so it is not offered to the schedule and never counts. The input is
// never mutated; corruption copies.
func (inj *Injector) MaybeCorrupt(site Site, key string, data []byte) []byte {
	if len(data) == 0 || !inj.Fires(site, key, CorruptKind) {
		return data
	}
	out := append([]byte(nil), data...)
	// Flip a hash-chosen byte plus the final byte, so truncation-style and
	// mid-stream damage are both exercised.
	h := inj.roll(site, key+"/corrupt")
	out[h%uint64(len(out))] ^= byte(h>>8) | 1
	out[len(out)-1] ^= 0x80
	return out
}

// IsInjected reports whether err's chain contains an injected fault error.
func IsInjected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}
