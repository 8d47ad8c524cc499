package cache

import (
	"context"
	"errors"
	"sync"
)

// Flight is the build farm's single-flight layer: concurrent builds that miss
// the cache on the same stage key share one execution instead of compiling
// the same artifact in parallel. The currency is the encoded artifact bytes —
// never a decoded structure — so every waiter decodes its own private copy
// and builds stay free of shared mutable state, exactly as a warm cache hit
// would be.
//
// Every Cache handle owns one Flight (see Cache.Flight), so the builds that
// share a handle — every clean build of a directory in one process, a compile
// daemon's requests included — share its flight, and a faulted build's
// private handle has a private one. The key space is the content-addressed
// cache key, which already folds in stage, input hash, config fingerprint,
// and schema, so two builds can only ever share work when they would have
// produced byte-identical artifacts.
type Flight struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	execs int64 // leader executions (fn invocations)
	waits int64 // calls that waited on another caller's execution
}

// flightCall is one in-flight execution; waiters block on done.
type flightCall struct {
	done chan struct{}
	data []byte
	err  error
}

// ErrFlightAborted is what waiters receive when the leader's fn did not
// produce a shareable result for reasons private to the leader: it panicked
// (the leader re-panics so the pipeline's panic isolation still sees it), or
// its build was cancelled or timed out (the leader keeps its own context
// error). Every waiter degrades to this structured error instead of hanging
// or inheriting a cancellation that was never theirs; since completed calls
// are forgotten immediately, a re-request simply recomputes.
var ErrFlightAborted = errors.New("cache: single-flight leader aborted")

// newFlight returns an empty single-flight group.
func newFlight() *Flight {
	return &Flight{calls: make(map[string]*flightCall)}
}

// Do executes fn for k exactly once among concurrent callers: the first
// caller (the leader) runs fn; callers arriving while it runs wait and share
// the leader's result. shared reports whether this call waited rather than
// executed. Completed calls are forgotten immediately — the cache, not the
// Flight, is the store — so an error is never sticky: the next Do for the
// same key executes again.
func (f *Flight) Do(k Key, fn func() ([]byte, error)) (data []byte, shared bool, err error) {
	id := k.id()
	f.mu.Lock()
	if c, ok := f.calls[id]; ok {
		f.waits++
		f.mu.Unlock()
		<-c.done
		return c.data, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	f.calls[id] = c
	f.execs++
	f.mu.Unlock()

	// Release waiters no matter how fn exits. On a panic the deferred path
	// runs before the panic unwinds past Do, so waiters get ErrFlightAborted
	// while the leader's panic keeps propagating to the pipeline's recovery.
	completed := false
	defer func() {
		if !completed {
			c.err = ErrFlightAborted
		}
		f.mu.Lock()
		delete(f.calls, id)
		f.mu.Unlock()
		close(c.done)
	}()
	data, err = fn()
	completed = true
	c.data, c.err = data, err
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The leader's build was cancelled or ran out of deadline — an event
		// private to that request. The leader reports its own context error;
		// waiters get the abort sentinel and fall back to computing privately.
		c.data, c.err = nil, ErrFlightAborted
	}
	return data, false, err
}

// Stats returns the group's lifetime totals: leader executions and deduped
// waits. A compile daemon surfaces them on its /stats endpoint.
func (f *Flight) Stats() (execs, waits int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs, f.waits
}
