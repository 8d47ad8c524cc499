package cache

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"outliner/internal/fault"
)

// Remote is the sharded remote cache tier's client: entries are spread over N
// shard servers (ShardServer's HTTP protocol) by a deterministic hash of the
// content address, so every daemon and every build agrees on which shard owns
// which key without coordination.
//
// The remote tier obeys the same degraded-mode contract as the disk tier: a
// dead shard, a slow shard, a corrupt response — every failure mode is a
// miss (Get) or an unpublished entry (Put), never a build failure. Transient
// errors retry with the disk tier's capped backoff; a shard that keeps
// failing trips its circuit breaker (see RemoteOptions.BreakerThreshold), so
// operations skip it instantly instead of paying the operation timeout and
// retries on every probe, and a background health probe re-admits it once it
// answers again.
type Remote struct {
	shards []string // base URLs, e.g. "http://10.0.0.7:9471"
	client *http.Client
	opts   RemoteOptions

	// Injectable seams, mirroring Cache: sleep replaces the backoff clock and
	// fault arms the RemoteGet/RemotePut/RemoteSlow injection sites (the
	// shard-kill chaos hook). Arm only private instances.
	sleep func(time.Duration)
	fault *fault.Injector

	inflight []atomic.Int64 // per-shard in-flight HTTP operations
	breakers []breaker      // per-shard circuit breakers

	proberOnce sync.Once     // starts the health-probe goroutine lazily
	closeOnce  sync.Once     // Close is idempotent
	proberStop chan struct{} // closed by Close

	mu    sync.Mutex
	stats []remoteShardStats
}

// remoteShardStats is one shard's client-side counter set.
type remoteShardStats struct {
	hits, misses, puts, errors, deletes int64
}

// Remote option defaults. defaultRemoteTimeout bounds one shard HTTP
// operation — a hung shard must cost a bounded slice of a build, not a
// build; the breaker exists so it does not even cost that slice per
// operation once the shard is known-bad.
const (
	defaultRemoteTimeout    = 5 * time.Second
	defaultBreakerThreshold = 5
	defaultProbeInterval    = 250 * time.Millisecond
)

// RemoteOptions tunes the remote tier client. The zero value selects the
// defaults.
type RemoteOptions struct {
	// Timeout bounds one shard HTTP operation (0 = 5s).
	Timeout time.Duration
	// BreakerThreshold is the consecutive failed-operation count that opens a
	// shard's circuit breaker (≤ 0 = 5).
	BreakerThreshold int
	// ProbeInterval is the background health-probe cadence for open breakers
	// (0 = 250ms).
	ProbeInterval time.Duration
}

// withDefaults normalizes zero fields to the documented defaults.
func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.Timeout <= 0 {
		o.Timeout = defaultRemoteTimeout
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = defaultBreakerThreshold
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = defaultProbeInterval
	}
	return o
}

// BreakerState is one shard breaker's position: requests flow when Closed,
// are shed instantly when Open, and stay shed while a HalfOpen health probe
// decides whether to re-admit the shard.
type BreakerState int32

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// ErrShardOpen is the RemoteErr recorded on operations shed by an open
// circuit breaker: the shard was skipped, not contacted.
var ErrShardOpen = fmt.Errorf("cache: shard circuit breaker open")

// breaker is one shard's circuit breaker. state is read lock-free on the
// operation hot path; transitions and counters move under mu.
type breaker struct {
	state atomic.Int32 // BreakerState

	mu          sync.Mutex
	consecutive int // consecutive failed operations while closed
	opens       int64
	halfOpens   int64
	closes      int64
	probes      int64
	shed        int64
}

// NewRemoteWith returns a client over the given shard base URLs; zero option
// fields take their defaults. An empty list returns nil — a valid "no remote
// tier" value everywhere a *Remote is accepted.
func NewRemoteWith(shardURLs []string, opts RemoteOptions) *Remote {
	if len(shardURLs) == 0 {
		return nil
	}
	opts = opts.withDefaults()
	return &Remote{
		shards:     append([]string(nil), shardURLs...),
		client:     &http.Client{Timeout: opts.Timeout},
		opts:       opts,
		inflight:   make([]atomic.Int64, len(shardURLs)),
		breakers:   make([]breaker, len(shardURLs)),
		proberStop: make(chan struct{}),
		stats:      make([]remoteShardStats, len(shardURLs)),
	}
}

// Timeout returns the effective per-operation timeout (0 on a nil Remote) —
// surfaced by the compile daemon's /stats so operators can see what a hung
// shard costs an unbroken operation.
func (r *Remote) Timeout() time.Duration {
	if r == nil {
		return 0
	}
	return r.opts.Timeout
}

// Close stops the background health prober (idempotent; safe on nil).
// Breakers stop recovering after Close — call it only on shutdown.
func (r *Remote) Close() {
	if r == nil {
		return
	}
	r.closeOnce.Do(func() { close(r.proberStop) })
}

// SetFault arms deterministic fault injection on the remote paths. Arm only
// private instances, never one shared by a daemon's concurrent builds.
func (r *Remote) SetFault(inj *fault.Injector) {
	if r != nil {
		r.fault = inj
	}
}

// ShardFor maps a content address to its owning shard: an FNV-1a hash of the
// id, mod the shard count. Pure, so every client agrees.
func (r *Remote) ShardFor(id string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(r.shards)))
}

// TierName names the tier that served a remote hit, for Probe.Tier.
func TierName(shard int) string { return fmt.Sprintf("remote-shard-%d", shard) }

func (r *Remote) entryURL(shard int, id string) string {
	return r.shards[shard] + "/entry/" + id
}

// breakerAllows reports whether shard's breaker admits an operation,
// counting a shed when it does not. Only a Closed breaker admits traffic;
// HalfOpen admits the health probe alone.
func (r *Remote) breakerAllows(shard int) bool {
	b := &r.breakers[shard]
	if BreakerState(b.state.Load()) == BreakerClosed {
		return true
	}
	b.mu.Lock()
	b.shed++
	b.mu.Unlock()
	return false
}

// breakerOK records a successful operation: any failure streak ends.
func (r *Remote) breakerOK(shard int) {
	b := &r.breakers[shard]
	b.mu.Lock()
	b.consecutive = 0
	b.mu.Unlock()
}

// breakerFail records a failed operation; crossing the consecutive-failure
// threshold opens the breaker and starts the background health prober.
func (r *Remote) breakerFail(shard int) {
	b := &r.breakers[shard]
	b.mu.Lock()
	b.consecutive++
	opened := b.consecutive >= r.opts.BreakerThreshold &&
		BreakerState(b.state.Load()) == BreakerClosed
	if opened {
		b.state.Store(int32(BreakerOpen))
		b.opens++
	}
	b.mu.Unlock()
	if opened {
		r.proberOnce.Do(func() { go r.proberLoop() })
	}
}

// proberLoop drives ProbeNow at the configured cadence until Close.
func (r *Remote) proberLoop() {
	t := time.NewTicker(r.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.proberStop:
			return
		case <-t.C:
			r.ProbeNow()
		}
	}
}

// ProbeNow health-probes every shard whose breaker is open, transitioning it
// to half-open for the probe's duration and closing it on success. The
// background prober calls it on a ticker; tests call it directly for a
// deterministic recovery step.
func (r *Remote) ProbeNow() {
	if r == nil {
		return
	}
	for shard := range r.shards {
		b := &r.breakers[shard]
		if BreakerState(b.state.Load()) != BreakerOpen {
			continue
		}
		b.mu.Lock()
		b.state.Store(int32(BreakerHalfOpen))
		b.halfOpens++
		b.probes++
		b.mu.Unlock()
		err := r.probeShard(shard)
		b.mu.Lock()
		if err == nil {
			b.state.Store(int32(BreakerClosed))
			b.consecutive = 0
			b.closes++
		} else {
			b.state.Store(int32(BreakerOpen))
		}
		b.mu.Unlock()
	}
}

// probeShard asks one shard's /statz whether it is serving again.
func (r *Remote) probeShard(shard int) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.Timeout)
	defer cancel()
	status, _, err := r.do(ctx, http.MethodGet, r.shards[shard]+"/statz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cache: shard %d health probe: status %d", shard, status)
	}
	return nil
}

// BreakerSnapshot reports one shard's breaker position and lifetime
// transition counters, for tests and diagnostics.
type BreakerSnapshot struct {
	State                            BreakerState
	Opens, HalfOpens, Closes, Probes int64
	Shed                             int64
}

// Breaker returns shard's breaker snapshot (zero value on a nil Remote).
func (r *Remote) Breaker(shard int) BreakerSnapshot {
	if r == nil {
		return BreakerSnapshot{}
	}
	b := &r.breakers[shard]
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:     BreakerState(b.state.Load()),
		Opens:     b.opens,
		HalfOpens: b.halfOpens,
		Closes:    b.closes,
		Probes:    b.probes,
		Shed:      b.shed,
	}
}

// shardOp runs one operation against shard under the remote tier's rules.
// An open breaker sheds it with ErrShardOpen before the shard is contacted.
// Otherwise op runs in the retry loop, counted in flight, and the outcome
// feeds the breaker: success ends any failure streak, and a failure counts
// one strike unless ctx ended it — a cancelled caller says nothing about the
// shard. A failure is recorded as pr.RemoteErr and returned.
func (r *Remote) shardOp(ctx context.Context, shard int, pr *Probe, op func(attempt int) error) error {
	if !r.breakerAllows(shard) {
		pr.RemoteErr = ErrShardOpen
		return ErrShardOpen
	}
	r.inflight[shard].Add(1)
	defer r.inflight[shard].Add(-1)
	err := retry(ctx, r.sleep, pr, op)
	if err == nil {
		r.breakerOK(shard)
		return nil
	}
	if ctx.Err() == nil {
		r.breakerFail(shard)
	}
	pr.RemoteErr = err
	return err
}

// get fetches the raw encoded entry for id from its shard. Every failure
// shape — refused connection, timeout, 5xx, short body, an open breaker, a
// cancelled context — degrades to a miss; only a 200 with a body is a hit.
func (r *Remote) get(ctx context.Context, id string) (raw []byte, shard int, ok bool, pr Probe) {
	if r == nil {
		return nil, 0, false, pr
	}
	shard = r.ShardFor(id)
	err := r.shardOp(ctx, shard, &pr, func(attempt int) error {
		if err := r.slowOrError(fault.RemoteGet, id, attempt); err != nil {
			return err
		}
		status, body, err := r.do(ctx, http.MethodGet, r.entryURL(shard, id), nil)
		switch {
		case err != nil:
			return err
		case status == http.StatusOK:
			raw, ok = body, true
		case status != http.StatusNotFound:
			return fmt.Errorf("cache: shard %d: unexpected status %d", shard, status)
		}
		return nil
	})
	switch {
	case errors.Is(err, ErrShardOpen):
		r.note(shard, func(s *remoteShardStats) { s.misses++ })
	case err != nil:
		r.note(shard, func(s *remoteShardStats) { s.errors++; s.misses++ })
	case ok:
		raw = r.fault.MaybeCorrupt(fault.RemoteGet, id, raw)
		r.note(shard, func(s *remoteShardStats) { s.hits++ })
	default:
		r.note(shard, func(s *remoteShardStats) { s.misses++ })
	}
	return raw, shard, ok, pr
}

// put publishes an entry, given as the slices it is made of in order, to its
// shard as one request body; failures degrade to an unpublished entry,
// recorded on the probe.
func (r *Remote) put(ctx context.Context, id string, parts [][]byte) (pr Probe) {
	if r == nil {
		return pr
	}
	shard := r.ShardFor(id)
	rejected := false
	err := r.shardOp(ctx, shard, &pr, func(attempt int) error {
		if err := r.slowOrError(fault.RemotePut, id, attempt); err != nil {
			return err
		}
		status, _, err := r.do(ctx, http.MethodPut, r.entryURL(shard, id), parts)
		switch {
		case err != nil:
			return err
		case status == http.StatusBadRequest:
			// The shard rejected the entry (over its cap): retrying sends
			// the same bytes, so degrade at once. The shard answered, so the
			// breaker sees a healthy operation.
			rejected = true
		case status != http.StatusNoContent && status != http.StatusOK:
			return fmt.Errorf("cache: shard %d: unexpected status %d", shard, status)
		}
		return nil
	})
	switch {
	case errors.Is(err, ErrShardOpen):
	case err != nil:
		r.note(shard, func(s *remoteShardStats) { s.errors++ })
	case rejected:
		pr.RemoteErr = fmt.Errorf("cache: shard %d rejected entry", shard)
		r.note(shard, func(s *remoteShardStats) { s.errors++ })
	default:
		r.note(shard, func(s *remoteShardStats) { s.puts++ })
	}
	return pr
}

// slowOrError consults the remote fault sites for one attempt: a SlowKind
// decision stalls for the full operation timeout (through the injectable
// clock) and then fails like a timed-out request — the hung-shard shape the
// breaker exists for — and an ErrorKind decision fails immediately.
func (r *Remote) slowOrError(site fault.Site, id string, attempt int) error {
	key := attemptKey(id, attempt)
	if r.fault.Fires(fault.RemoteSlow, key, fault.SlowKind) {
		sleepVia(r.sleep, r.opts.Timeout)
		return &fault.Error{Site: fault.RemoteSlow, Key: key, Transient: true}
	}
	return r.fault.MaybeError(site, key)
}

// drop deletes a corrupt entry from its shard (fire-and-forget): the next
// publication replaces it, the same crash-safe rebuild-and-republish protocol
// the disk tier follows.
func (r *Remote) drop(ctx context.Context, shard int, id string) {
	if r == nil || !r.breakerAllows(shard) {
		return
	}
	r.inflight[shard].Add(1)
	defer r.inflight[shard].Add(-1)
	if _, _, err := r.do(ctx, http.MethodDelete, r.entryURL(shard, id), nil); err == nil {
		r.note(shard, func(s *remoteShardStats) { s.deletes++ })
	}
}

// do runs one HTTP operation and returns status plus (for GET) the body. A
// request body is the concatenation of body's slices, sent without joining
// them.
func (r *Remote) do(ctx context.Context, method, url string, body [][]byte) (int, []byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		for _, b := range body {
			req.ContentLength += int64(len(b))
		}
		// The transport may resend a request on a fresh connection; GetBody
		// gives it the whole body again.
		req.GetBody = func() (io.ReadCloser, error) {
			bufs := append(net.Buffers(nil), body...) // Read consumes its receiver
			return io.NopCloser(&bufs), nil
		}
		req.Body, _ = req.GetBody()
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var data []byte
	if method == http.MethodGet && resp.StatusCode == http.StatusOK {
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxEntryUpload))
		if err != nil {
			return 0, nil, err
		}
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	}
	return resp.StatusCode, data, nil
}

func (r *Remote) note(shard int, f func(*remoteShardStats)) {
	r.mu.Lock()
	f(&r.stats[shard])
	r.mu.Unlock()
}

// Counters returns a snapshot of per-shard client counters in obs namespace
// style: cache/remote/shard<N>/{hits,misses,puts,errors,deletes,inflight}
// plus the breaker's state gauge and transition counters
// (breaker_state, breaker_opens, breaker_half_opens, breaker_closes,
// breaker_probes, breaker_shed).
func (r *Remote) Counters() map[string]int64 {
	out := map[string]int64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	for i := range r.stats {
		p := fmt.Sprintf("cache/remote/shard%d/", i)
		out[p+"hits"] = r.stats[i].hits
		out[p+"misses"] = r.stats[i].misses
		out[p+"puts"] = r.stats[i].puts
		out[p+"errors"] = r.stats[i].errors
		out[p+"deletes"] = r.stats[i].deletes
		out[p+"inflight"] = r.inflight[i].Load()
	}
	r.mu.Unlock()
	for i := range r.breakers {
		p := fmt.Sprintf("cache/remote/shard%d/", i)
		b := r.Breaker(i)
		out[p+"breaker_state"] = int64(b.State)
		out[p+"breaker_opens"] = b.Opens
		out[p+"breaker_half_opens"] = b.HalfOpens
		out[p+"breaker_closes"] = b.Closes
		out[p+"breaker_probes"] = b.Probes
		out[p+"breaker_shed"] = b.Shed
	}
	return out
}
