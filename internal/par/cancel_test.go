package par_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"outliner/internal/par"
)

// TestMapLanesStageCtxPreCancelled: a context that is already done stops the
// stage before any task runs, and the stage error names the stage and wraps
// the context's error.
func TestMapLanesStageCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	for _, p := range []int{1, 4} {
		err := first(par.Run(ctx, "frontend", p, 16, false, func(lane, i int) error {
			ran.Add(1)
			return nil
		}))
		if err == nil {
			t.Fatalf("p=%d: pre-cancelled context produced no error", p)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("p=%d: error %v does not wrap context.Canceled", p, err)
		}
		if !strings.Contains(err.Error(), `stage "frontend"`) {
			t.Fatalf("p=%d: error %q does not name the stage", p, err)
		}
	}
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran under a pre-cancelled context, want 0", ran.Load())
	}
}

// TestMapLanesStageCtxNilNeverCancels: nil means "no context", the historic
// behavior every pre-context call site relies on.
func TestMapLanesStageCtxNilNeverCancels(t *testing.T) {
	out := make([]int, 8)
	errs := par.Run(nil, "s", 4, 8, false, func(lane, i int) error {
		out[i] = i * i
		return nil
	})
	if errs != nil {
		t.Fatal(errs)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapAllLanesStageCtxCancelMidWaveKeepsEarlierFailures is the
// keep-going × cancellation contract: cancelling mid-wave stops further
// claiming, but every failure recorded before the cut stays in the error
// slice, joined by exactly one cancellation error at the first unclaimed
// index. A keep-going build cancelled halfway still reports the modules that
// had already failed.
func TestMapAllLanesStageCtxCancelMidWaveKeepsEarlierFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom0 := fmt.Errorf("module 0 broken")
	boom2 := fmt.Errorf("module 2 broken")
	out := make([]string, 5)
	errs := par.Run(ctx, "frontend", 1, 5, true, func(lane, i int) error {
		switch i {
		case 0:
			return boom0
		case 2:
			cancel() // the wave is cancelled while task 2 runs
			return boom2
		case 4:
			t.Error("task 4 claimed after cancellation")
		}
		out[i] = fmt.Sprintf("ok%d", i)
		return nil
	})
	if errs == nil {
		t.Fatal("no errors recorded")
	}
	if !errors.Is(errs[0], boom0) {
		t.Fatalf("errs[0] = %v, want the recorded pre-cancel failure", errs[0])
	}
	if out[1] != "ok1" {
		t.Fatalf("out[1] = %q, task 1's result was lost", out[1])
	}
	if !errors.Is(errs[2], boom2) {
		t.Fatalf("errs[2] = %v, want the failure of the task that cancelled", errs[2])
	}
	if errs[3] == nil || !errors.Is(errs[3], context.Canceled) {
		t.Fatalf("errs[3] = %v, want exactly one cancellation error at the first unclaimed index", errs[3])
	}
	if errs[4] != nil {
		t.Fatalf("errs[4] = %v, want nil (only one cancellation error is recorded)", errs[4])
	}
	count := 0
	for _, e := range errs {
		if e != nil && errors.Is(e, context.Canceled) {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d cancellation errors recorded, want exactly 1", count)
	}
}

// TestMapAllLanesStageCtxPreCancelled: keep-going under an already-done
// context runs nothing and reports a single cancellation error.
func TestMapAllLanesStageCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	errs := par.Run(ctx, "parse", 4, 8, true, func(lane, i int) error {
		ran.Add(1)
		return nil
	})
	if ran.Load() != 0 {
		t.Fatalf("%d tasks ran, want 0", ran.Load())
	}
	nonNil := 0
	for _, e := range errs {
		if e != nil {
			if !errors.Is(e, context.Canceled) {
				t.Fatalf("unexpected error %v", e)
			}
			nonNil++
		}
	}
	if nonNil != 1 {
		t.Fatalf("%d errors recorded, want exactly one cancellation error", nonNil)
	}
}
