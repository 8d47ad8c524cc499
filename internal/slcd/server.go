// Package slcd is the compile daemon behind cmd/slcd: a long-running build
// service that accepts concurrent build requests over HTTP and answers each
// by streaming the deterministic image listing, with the build's counters,
// onto the connection as the JSON encoder would have encoded it.
//
// What makes it a build-farm service rather than a loop around pipeline.Build:
//
//   - A shared warm path. All requests share the daemon's cache directory
//     (the process-shared cache.Shared handle) and, when configured, a
//     sharded remote tier, so one request's publications are the next
//     request's hits.
//   - Single-flight dedupe. The shared handle's flight (cache.Cache.Flight)
//     compiles identical in-flight stage keys — the common case when a fleet
//     of CI jobs submits the same commit — once and shares the encoded
//     artifact; every waiter decodes a private copy.
//   - Degraded modes, not failures. A dead or corrupt remote shard degrades
//     to a miss under the cache's retry policy (and a persistently dead
//     shard trips its circuit breaker, so the farm stops paying its timeout);
//     a build request never fails because the farm's accelerators are
//     unhealthy.
//   - Bounded admission. A fixed number of builds run concurrently; a bounded
//     queue absorbs bursts; past that the daemon sheds load with a structured
//     503 instead of queueing without bound.
//   - Deadlines and drain. Every build runs under a context assembled from
//     the client connection, the request's timeout_ms, and the daemon's
//     -deadline; SIGTERM drains gracefully — new requests get 503 +
//     Retry-After while in-flight builds finish, then stragglers are
//     cancelled at the drain deadline. A cancelled build never publishes a
//     cache entry, so reissuing the request after a restart is byte-identical.
//
// Fault-armed requests (chaos drills) opt out of all sharing: they build on
// private cache handles with no flight or remote tier, so injected damage
// cannot leak into concurrent clean builds.
package slcd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"outliner/internal/cache"
	"outliner/internal/obs"
	"outliner/internal/pipeline"
)

// maxRequestBody bounds a build request (sources are text; 64 MiB is an
// enormous app at this scale).
const maxRequestBody = 64 << 20

// Options configures a daemon.
type Options struct {
	// CacheDir is the daemon's build cache directory. Empty disables caching
	// and with it the single-flight layer, which lives on the cache handle;
	// with no cache at all the daemon still builds, just without reuse.
	CacheDir string
	// ShardURLs are the remote cache shard base URLs (cache.NewRemoteWith).
	// Empty means no remote tier.
	ShardURLs []string
	// Parallelism is the per-build worker count (pipeline.Config.Parallelism;
	// 0 = one per CPU).
	Parallelism int
	// MaxBuilds bounds concurrently executing build requests; further
	// requests queue. 0 means 4.
	MaxBuilds int
	// MaxQueue bounds requests waiting for a build slot. A request arriving
	// with the queue full is shed with a structured 503 (error_class "shed")
	// instead of waiting without bound. 0 means 32; negative means unbounded.
	MaxQueue int
	// Deadline caps every build's wall-clock time, combined with the
	// request's own timeout_ms (the smaller wins). 0 means no daemon cap.
	Deadline time.Duration
	// RemoteTimeout is the per-operation remote shard timeout
	// (cache.RemoteOptions.Timeout). 0 means the cache package default.
	RemoteTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a shard's
	// circuit breaker (cache.RemoteOptions.BreakerThreshold). A non-positive
	// value means the default.
	BreakerThreshold int
}

// Server is the daemon state shared across requests.
type Server struct {
	opts   Options
	remote *cache.Remote
	// shared is the process-shared handle of CacheDir, which clean requests
	// build on: it carries the remote tier and the single flight. nil without
	// a usable cache directory.
	shared *cache.Cache
	sem    chan struct{}

	// Admission and drain state. queued/running are gauges read by Snapshot;
	// inflight tracks running builds so Drain can wait for them. draining
	// flips once; drainCh unblocks queued waiters when it does; hardCancel
	// cancels straggler builds at the drain deadline.
	queued     atomic.Int64
	running    atomic.Int64
	inflight   sync.WaitGroup
	draining   atomic.Bool
	drainOnce  sync.Once
	drainCh    chan struct{}
	hardCtx    context.Context
	hardCancel context.CancelFunc

	mu       sync.Mutex
	builds   int64 // completed build requests
	failures int64 // completed with a build error
	counters map[string]int64
}

// NewServer returns a daemon over the given options.
func NewServer(opts Options) *Server {
	if opts.MaxBuilds <= 0 {
		opts.MaxBuilds = 4
	}
	if opts.MaxQueue == 0 {
		opts.MaxQueue = 32
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	s := &Server{
		opts: opts,
		remote: cache.NewRemoteWith(opts.ShardURLs, cache.RemoteOptions{
			Timeout:          opts.RemoteTimeout,
			BreakerThreshold: opts.BreakerThreshold,
		}),
		sem:        make(chan struct{}, opts.MaxBuilds),
		drainCh:    make(chan struct{}),
		hardCtx:    hardCtx,
		hardCancel: hardCancel,
		counters:   map[string]int64{},
	}
	// Clean requests build on the process-shared handle, so the remote tier
	// goes there; an unusable directory is left for the first build to report.
	if opts.CacheDir != "" {
		s.shared, _ = cache.Shared(opts.CacheDir)
	}
	if s.remote != nil {
		s.shared.SetRemote(s.remote)
	}
	return s
}

// Close releases daemon background state: it detaches the remote tier from
// the shared cache handle and stops its breaker prober. Safe to call more
// than once and on a nil-remote daemon.
func (s *Server) Close() {
	if s.remote != nil {
		s.shared.SetRemote(nil)
	}
	s.remote.Close()
	s.hardCancel()
}

// Handler returns the daemon's HTTP handler:
//
//	POST /build   — run one build (BuildRequest → BuildResponse)
//	GET  /stats   — daemon counters aggregated across completed requests
//	GET  /healthz — liveness probe ("ok"; 503 "draining" during shutdown)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/build", s.handleBuild)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ok\n")
	})
	return mux
}

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(r)
	if err != nil || len(body) > maxRequestBody {
		http.Error(w, "unreadable or oversized request body", http.StatusBadRequest)
		return
	}
	req := BuildRequest{Config: DefaultConfig()}
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad request JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Modules) == 0 {
		http.Error(w, "request has no modules", http.StatusBadRequest)
		return
	}
	// r.Context() makes a client disconnect cancel the build mid-stage
	// instead of burning a build slot on an answer nobody will read.
	resp, res := s.build(r.Context(), &req)
	w.Header().Set("Content-Type", "application/json")
	if resp.ErrorClass == "shed" || resp.ErrorClass == "drain" {
		// Structured overload/shutdown refusal: the client should retry —
		// against this daemon after a beat, or its restarted successor.
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	// The listing streams from res onto the connection; a write error means
	// the client left, and there is no one to tell.
	writeReply(w, resp, res)
}

// readBody reads a request body of at most maxRequestBody+1 bytes, so the
// caller can tell an oversized body from one that fits. A declared
// Content-Length within the bound sizes the buffer up front; the length is
// only a hint, and a body longer or shorter than declared still reads in full.
func readBody(r *http.Request) ([]byte, error) {
	body := io.LimitReader(r.Body, maxRequestBody+1)
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		// bytes.MinRead of headroom lets ReadFrom see EOF without regrowing.
		buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
		_, err := buf.ReadFrom(body)
		return buf.Bytes(), err
	}
	return io.ReadAll(body)
}

// Build runs one build request against the daemon's shared state with no
// caller-supplied context. It is the pre-deadline entry point, kept for
// embedders and tests that drive the daemon without a listener.
func (s *Server) Build(req *BuildRequest) *BuildResponse {
	return s.BuildCtx(context.Background(), req)
}

// BuildCtx runs one build request under ctx. The build's effective context is
// ctx (the client connection) bounded by the smaller of the request's
// timeout_ms and the daemon's Deadline, and additionally cancelled by the
// drain hard-cancel. Admission: a draining daemon refuses immediately; a full
// queue sheds; otherwise the request waits for a build slot (cancellable).
func (s *Server) BuildCtx(ctx context.Context, req *BuildRequest) *BuildResponse {
	resp, res := s.build(ctx, req)
	if res != nil {
		resp.Listing = res.ImageListing()
	}
	return resp
}

// build is BuildCtx without the listing: a successful build's response comes
// with its result, which the caller renders the listing from (BuildCtx into
// Listing, the handler onto the connection); the result is nil otherwise.
func (s *Server) build(ctx context.Context, req *BuildRequest) (*BuildResponse, *pipeline.Result) {
	if s.draining.Load() {
		return s.refuse("drain", "daemon is draining for shutdown"), nil
	}
	if depth := s.queued.Add(1); s.opts.MaxQueue >= 0 && depth > int64(s.opts.MaxQueue) {
		s.queued.Add(-1)
		return s.refuse("shed", fmt.Sprintf("daemon overloaded: admission queue full (%d waiting, max %d)", depth-1, s.opts.MaxQueue)), nil
	}
	queuedAt := time.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.queued.Add(-1)
		return s.refuse("canceled", "request cancelled while queued: "+ctx.Err().Error()), nil
	case <-s.drainCh:
		s.queued.Add(-1)
		return s.refuse("drain", "daemon began draining while request was queued"), nil
	}
	s.queued.Add(-1)
	queueWait := time.Since(queuedAt)
	s.running.Add(1)
	s.inflight.Add(1)
	defer func() {
		s.running.Add(-1)
		<-s.sem
		s.inflight.Done()
	}()

	bctx, cancel := s.buildContext(ctx, req)
	defer cancel()

	cfg, err := req.Config.pipelineConfig()
	if err != nil {
		resp := &BuildResponse{OK: false, Error: err.Error(), ErrorClass: "build"}
		s.finish(resp, queueWait)
		return resp, nil
	}
	tr := obs.New()
	cfg.Ctx = bctx
	cfg.Tracer = tr
	cfg.Parallelism = s.opts.Parallelism
	// The shared accelerators come with the cache handle. A fault-armed
	// request builds on a private handle, with neither the remote tier nor
	// the shared flight.
	cfg.CacheDir = s.opts.CacheDir

	res, berr := pipeline.Build(req.sources(), cfg)
	resp := &BuildResponse{Counters: tr.Counters()}
	if berr != nil {
		resp.Error = berr.Error()
		resp.ErrorClass = classifyError(berr)
		res = nil
	} else {
		resp.OK = true
		resp.CodeSize = res.CodeSize()
		resp.TotalSize = res.BinarySize()
	}
	s.finish(resp, queueWait)
	return resp, res
}

// buildContext assembles the build's context: ctx bounded by the smaller of
// the request's timeout_ms and the daemon Deadline, and tied to the drain
// hard-cancel so stragglers die at the drain deadline.
func (s *Server) buildContext(ctx context.Context, req *BuildRequest) (context.Context, context.CancelFunc) {
	timeout := s.opts.Deadline
	if reqTO := time.Duration(req.Config.TimeoutMS) * time.Millisecond; reqTO > 0 && (timeout == 0 || reqTO < timeout) {
		timeout = reqTO
	}
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	stop := context.AfterFunc(s.hardCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// refuse builds the structured refusal response for shed/drain/queue-cancel
// outcomes and folds it into the daemon aggregates (counter
// "slcd/refused/<class>"; refusals don't count as builds — no pipeline ran).
func (s *Server) refuse(class, msg string) *BuildResponse {
	s.mu.Lock()
	s.counters["slcd/refused/"+class]++
	s.mu.Unlock()
	return &BuildResponse{OK: false, Error: "slcd: " + msg, ErrorClass: class}
}

// StartDrain flips the daemon into draining mode: /healthz reports draining,
// new and queued requests are refused with 503 + Retry-After, in-flight
// builds keep running. Idempotent.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		close(s.drainCh)
	})
}

// Drain performs the graceful-shutdown protocol: StartDrain, wait up to
// timeout for in-flight builds to finish, then hard-cancel stragglers and
// wait for them to unwind. Returns true if every build finished before the
// deadline (no straggler was cancelled).
func (s *Server) Drain(timeout time.Duration) bool {
	s.StartDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		s.hardCancel()
		<-done
		s.mu.Lock()
		s.counters["slcd/drain_hard_cancels"]++
		s.mu.Unlock()
		return false
	}
}

// finish folds one completed request into the daemon aggregates.
func (s *Server) finish(resp *BuildResponse, queueWait time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.builds++
	if !resp.OK {
		s.failures++
		if resp.ErrorClass != "" {
			s.counters["slcd/failed/"+resp.ErrorClass]++
		}
	}
	s.counters["slcd/queue_wait_ns"] += queueWait.Nanoseconds()
	for name, v := range resp.Counters {
		s.counters[name] += v
	}
}

// Stats is the GET /stats payload.
type Stats struct {
	// State is "serving" or "draining".
	State    string `json:"state"`
	Builds   int64  `json:"builds"`
	Failures int64  `json:"failures"`
	// QueueDepth/Running are point-in-time gauges: requests waiting for a
	// build slot and builds executing right now. MaxBuilds/MaxQueue are the
	// configured bounds behind the admission policy.
	QueueDepth int64 `json:"queue_depth"`
	Running    int64 `json:"running"`
	MaxBuilds  int   `json:"max_builds"`
	MaxQueue   int   `json:"max_queue"`
	// RemoteTimeoutMS is the effective per-operation remote shard timeout
	// (0 when no remote tier is configured).
	RemoteTimeoutMS int64 `json:"remote_timeout_ms"`
	// FlightExecs/FlightWaits are the shared cache handle's single-flight
	// lifetime totals: closures executed vs. callers that shared a leader's
	// result. Both 0 without a cache directory.
	FlightExecs int64 `json:"flight_execs"`
	FlightWaits int64 `json:"flight_waits"`
	// Counters aggregates every completed request's counters and the
	// daemon's own slcd/* admission counters, plus the remote tier's
	// per-shard client counters read live: lifetime totals, the in-flight
	// and breaker state gauges, and the breaker transition totals.
	Counters map[string]int64 `json:"counters"`
}

// Snapshot returns the daemon aggregates.
func (s *Server) Snapshot() Stats {
	var execs, waits int64
	if s.shared != nil {
		execs, waits = s.shared.Flight().Stats()
	}
	state := "serving"
	if s.draining.Load() {
		state = "draining"
	}
	st := Stats{
		State:           state,
		QueueDepth:      s.queued.Load(),
		Running:         s.running.Load(),
		MaxBuilds:       s.opts.MaxBuilds,
		MaxQueue:        s.opts.MaxQueue,
		RemoteTimeoutMS: s.remote.Timeout().Milliseconds(),
		FlightExecs:     execs,
		FlightWaits:     waits,
		Counters:        s.remote.Counters(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Builds = s.builds
	st.Failures = s.failures
	for k, v := range s.counters {
		st.Counters[k] = v
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Snapshot copies under s.mu; the (potentially slow) encode to the client
	// happens strictly outside the lock, so a stalled stats reader can never
	// block request completion.
	st := s.Snapshot()
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		http.Error(w, "encoding stats: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}
