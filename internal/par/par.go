// Package par is the deterministic parallel execution layer of the build
// pipeline. It provides a bounded worker pool with ordered result
// collection: work items are claimed in index order, results land at their
// input index, and errors are reported for the lowest failing index — so
// callers observe the same values whether the pool runs one worker or one
// per core.
//
// The paper's whole-program pipeline forfeits the per-module parallelism
// that build systems exploit (§VII-C: 53 min whole-program vs 21 min
// default); this package is how the reproduction wins it back without
// giving up the outliner's byte-for-byte determinism guarantee.
//
// Fault tolerance: a panic inside a worker never takes down the process.
// Every task runs under a recover that converts the panic into a structured
// *PanicError (task index, pipeline stage, stack) delivered through the same
// lowest-index-error contract as ordinary failures. A caller whose tasks
// cannot fail re-raises it with panic(err) on its own goroutine, where the
// pipeline's recovery boundary turns it into a build error. After the first
// failure the pool cancels promptly: workers stop executing tasks whose index
// lies above the lowest recorded failure (tasks below it still run, which is
// what keeps the reported error deterministic under any scheduling). Under
// keepGoing every task runs regardless of failures and all errors are
// collected.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a worker panic converted into an error: the structured
// diagnostic a build reports instead of crashing the process.
type PanicError struct {
	Index int    // task index that panicked
	Stage string // pipeline stage the pool was serving ("" if unlabelled)
	Value any    // the recovered panic value
	Stack []byte // stack captured at the panic's recovery point
}

func (e *PanicError) Error() string {
	where := fmt.Sprintf("task %d", e.Index)
	if e.Index < 0 {
		where = "main goroutine"
	}
	if e.Stage != "" {
		where = fmt.Sprintf("stage %q, %s", e.Stage, where)
	}
	return fmt.Sprintf("panic in parallel worker (%s): %v", where, e.Value)
}

// Unwrap exposes a panic value that was itself an error (panic(err)), so
// errors.Is/As see through the conversion.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered wraps a recovered panic value as a *PanicError, reusing it
// unchanged when it already is one. index -1 means "not a pool task" — the
// pipeline's top-level recovery boundaries use it for panics on the calling
// goroutine.
func Recovered(stage string, index int, r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Index: index, Stage: stage, Value: r, Stack: debug.Stack()}
}

// Workers normalizes a parallelism knob against the size of the work list:
// p <= 0 means one worker per logical CPU (runtime.GOMAXPROCS(0)), and the
// result never exceeds n or drops below 1.
func Workers(p, n int) int {
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// recordedHook, when a test of this package sets it, is called after a task's
// failure has been recorded and made visible to the claim loop — the one
// moment of a pool's life a test cannot otherwise observe.
var recordedHook func(i int)

// Run is the pool: it executes f(lane, i) for every i in [0, n) with at most
// p workers (see Workers for how p is normalized), recovering panics into
// *PanicError labelled with stage. It returns a per-index error slice, or nil
// when every task succeeded (the common path allocates nothing); the first
// non-nil entry is the error of the lowest failing index.
//
// With an effective worker count of 1 the calls happen on the calling
// goroutine in index order — exactly the serial loop the pool replaces. With
// more workers, indices are claimed in order from a shared counter, so item k
// never starts before item k-1 has been claimed. lane (0 ≤ lane < effective
// worker count) names the worker: each lane is one goroutine, so calls on the
// same lane never overlap in time — which is what lets callers keep per-lane
// scratch and the telemetry layer render the pool as per-worker tracks. The
// lane an item lands on is scheduling-dependent; callers must not let it
// influence results.
//
// With keepGoing false, tasks whose index exceeds the lowest recorded
// failure are skipped — the early cancellation that stops a failed build
// promptly. Determinism of the reported error follows from the skip rule:
// a task i is only skipped when some j < i has already failed, and since
// f is deterministic per index, the smallest failing index always executes
// and always records its error. With keepGoing true nothing is skipped.
//
// ctx may be nil ("never cancelled"). A done context stops workers from
// claiming further tasks — even under keepGoing, where it overrides the
// run-everything rule: a cancelled build must stop promptly, not finish the
// wave. Exactly one cancellation error (wrapping ctx.Err, naming the stage)
// is recorded at the first unclaimed index, so keep-going callers aggregate
// it alongside the failures of every task that already ran. In-flight tasks
// are not interrupted; long tasks observe the same context themselves.
// Cancellation is inherently nondeterministic — the error set depends on when
// the context fired — which is why only external events (client disconnects,
// deadlines, drains) and scripted faults ever cancel a build's context.
func Run(ctx context.Context, stage string, p, n int, keepGoing bool, f func(lane, i int) error) []error {
	p = Workers(p, n)

	var errs []error
	var errsMu sync.Mutex
	var failedAt atomic.Int64
	failedAt.Store(int64(n))

	record := func(i int, err error) {
		errsMu.Lock()
		if errs == nil {
			errs = make([]error, n)
		}
		errs[i] = err
		errsMu.Unlock()
		for !keepGoing {
			cur := failedAt.Load()
			if int64(i) >= cur || failedAt.CompareAndSwap(cur, int64(i)) {
				break
			}
		}
		if recordedHook != nil {
			recordedHook(i)
		}
	}
	var cancelOnce sync.Once
	// cancelled reports whether ctx is done before task i runs, recording the
	// cancellation (once) at i — the lowest index no worker will claim.
	cancelled := func(i int) bool {
		if ctx == nil || ctx.Err() == nil {
			return false
		}
		cancelOnce.Do(func() {
			record(i, fmt.Errorf("stage %q cancelled before task %d: %w", stage, i, ctx.Err()))
		})
		return true
	}
	call := func(lane, i int) {
		defer func() {
			if r := recover(); r != nil {
				record(i, Recovered(stage, i, r))
			}
		}()
		if err := f(lane, i); err != nil {
			record(i, err)
		}
	}

	if p == 1 {
		for i := 0; i < n; i++ {
			if !keepGoing && int64(i) > failedAt.Load() {
				break
			}
			if cancelled(i) {
				break
			}
			call(0, i)
		}
		return errs
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		w := w
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// A failure strictly below i has been recorded: every index
				// this worker could still claim is above it too, so stop.
				if !keepGoing && int64(i) > failedAt.Load() {
					return
				}
				if cancelled(i) {
					return
				}
				call(w, i)
			}
		}()
	}
	wg.Wait()
	return errs
}
