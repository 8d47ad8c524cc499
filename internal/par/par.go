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
// lowest-index-error contract as ordinary failures — Map returns it, Do
// re-panics it on the calling goroutine where the pipeline's recovery
// boundary turns it into a build error. After the first failure the pool
// cancels promptly: workers stop executing tasks whose index lies above the
// lowest recorded failure (tasks below it still run, which is what keeps the
// reported error deterministic under any scheduling). MapAllLanesStage is
// the keep-going variant: every task runs regardless of failures and all
// errors are collected.
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

// runLanes is the shared pool: it executes f(lane, i) for every i in [0, n)
// with at most p workers, recovering panics into *PanicError. It returns a
// per-index error slice, or nil when every task succeeded (the common path
// allocates nothing).
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
// it alongside the failures of every task that already ran. Cancellation is
// inherently nondeterministic — the error set depends on when the context
// fired — which is why only external events (client disconnects, deadlines,
// drains) and scripted faults ever cancel a build's context.
func runLanes(ctx context.Context, stage string, p, n int, keepGoing bool, f func(lane, i int) error) []error {
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

// firstErr returns the lowest-index error, or nil.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Do runs f(i) for every i in [0, n) using at most p workers (see Workers
// for how p is normalized). With an effective worker count of 1 the calls
// happen on the calling goroutine in index order — exactly the serial loop
// it replaces. With more workers, indices are claimed in order from a
// shared counter, so item k never starts before item k-1 has been claimed.
// Do returns once every call has finished. A panicking call does not crash
// the process: the lowest-index panic is re-raised on the calling goroutine
// as a *PanicError (remaining higher-index tasks are skipped).
func Do(p, n int, f func(i int)) {
	DoLanesStage("", p, n, func(_, i int) { f(i) })
}

// DoStage is Do with the pipeline stage recorded in panic diagnostics.
func DoStage(stage string, p, n int, f func(i int)) {
	DoLanesStage(stage, p, n, func(_, i int) { f(i) })
}

// DoLanes is Do with the worker's lane (0 ≤ lane < effective worker count)
// passed to every call. Each lane is one goroutine: calls on the same lane
// never overlap in time, which is what lets the telemetry layer render the
// pool as per-worker tracks in a trace. The lane an item lands on is
// scheduling-dependent; callers must not let it influence results.
func DoLanes(p, n int, f func(lane, i int)) {
	DoLanesStage("", p, n, f)
}

// DoLanesStage is DoLanes with the pipeline stage recorded in panic
// diagnostics.
func DoLanesStage(stage string, p, n int, f func(lane, i int)) {
	errs := runLanes(nil, stage, p, n, false, func(lane, i int) error {
		f(lane, i)
		return nil
	})
	// Only panics can be recorded here; re-raise the lowest-index one where
	// the caller's recovery boundary (pipeline, outliner) can see it.
	if err := firstErr(errs); err != nil {
		panic(err)
	}
}

// Map runs f(i) for every i in [0, n) using at most p workers and collects
// the results in input order. If any call fails, Map returns the error of
// the lowest failing index — deterministic regardless of scheduling,
// because a task is only skipped when a lower-index task has already
// failed, so the smallest failing index is always executed. Panics count as
// failures and surface as *PanicError. After a failure, higher-index tasks
// are skipped (with one worker this degenerates to the serial
// stop-at-first-error loop).
func Map[T any](p, n int, f func(i int) (T, error)) ([]T, error) {
	return MapLanesStage("", p, n, func(_, i int) (T, error) { return f(i) })
}

// MapStage is Map with the pipeline stage recorded in panic diagnostics.
func MapStage[T any](stage string, p, n int, f func(i int) (T, error)) ([]T, error) {
	return MapLanesStage(stage, p, n, func(_, i int) (T, error) { return f(i) })
}

// MapLanes is Map with the worker's lane passed to every call (see DoLanes).
func MapLanes[T any](p, n int, f func(lane, i int) (T, error)) ([]T, error) {
	return MapLanesStage("", p, n, f)
}

// MapLanesStage is MapLanes with the pipeline stage recorded in panic
// diagnostics.
func MapLanesStage[T any](stage string, p, n int, f func(lane, i int) (T, error)) ([]T, error) {
	return MapLanesStageCtx(nil, stage, p, n, f)
}

// MapLanesStageCtx is MapLanesStage under a context: once ctx is done,
// workers stop claiming tasks and the stage fails with an error wrapping
// ctx.Err() (unless a lower-index task had already failed — the lowest-index
// rule is unchanged). A nil ctx never cancels. In-flight tasks are not
// interrupted; long tasks observe the same context themselves.
func MapLanesStageCtx[T any](ctx context.Context, stage string, p, n int, f func(lane, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := runLanes(ctx, stage, p, n, false, func(lane, i int) error {
		v, err := f(lane, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// MapAllLanesStage is the keep-going variant of MapLanesStage: every task
// runs regardless of failures (nothing is cancelled), results land at their
// index, and the returned error slice holds each task's failure at its index
// (nil when every task succeeded). Panics are collected as *PanicError like
// any other failure. Callers aggregate the errors — pipeline keep-going mode
// reports every broken module at once instead of only the first.
func MapAllLanesStage[T any](stage string, p, n int, f func(lane, i int) (T, error)) ([]T, []error) {
	return MapAllLanesStageCtx(nil, stage, p, n, f)
}

// MapAllLanesStageCtx is MapAllLanesStage under a context. Cancellation
// overrides keep-going: once ctx is done workers stop claiming tasks, but
// every error already recorded stays in the slice, joined by exactly one
// cancellation error — so a keep-going caller still aggregates the failures
// of everything that ran before the cut. A nil ctx never cancels.
func MapAllLanesStageCtx[T any](ctx context.Context, stage string, p, n int, f func(lane, i int) (T, error)) ([]T, []error) {
	out := make([]T, n)
	errs := runLanes(ctx, stage, p, n, true, func(lane, i int) error {
		v, err := f(lane, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, errs
}
