package par_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"outliner/internal/par"
)

func TestMapPanicBecomesPanicError(t *testing.T) {
	for _, p := range []int{1, 4, 0} {
		err := first(par.Run(nil, "llc", p, 50, false, func(_, i int) error {
			if i == 17 {
				panic("compiler bug")
			}
			return nil
		}))
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("p=%d: got %T (%v), want *par.PanicError", p, err, err)
		}
		if pe.Index != 17 || pe.Stage != "llc" || pe.Value != "compiler bug" {
			t.Fatalf("p=%d: PanicError = %+v", p, pe)
		}
		if !bytes.Contains(pe.Stack, []byte("panic_test.go")) {
			t.Fatalf("p=%d: stack does not point at the panic site:\n%s", p, pe.Stack)
		}
		for _, want := range []string{"llc", "task 17", "compiler bug"} {
			if !bytes.Contains([]byte(pe.Error()), []byte(want)) {
				t.Fatalf("p=%d: Error() = %q missing %q", p, pe.Error(), want)
			}
		}
	}
}

func TestPanicErrorUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("inner failure")
	err := run(4, 10, func(i int) error {
		if i == 3 {
			panic(sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("panic(err) not visible through errors.Is: %v", err)
	}
}

// TestDoRePanicsStructured: a worker panic must not crash the process; the
// lowest-index one comes back as a *PanicError the caller re-raises with
// panic(err) — the idiom of every call site whose tasks cannot fail — and a
// recovery boundary on the calling goroutine sees that same value.
func TestDoRePanicsStructured(t *testing.T) {
	for _, p := range []int{1, 4} {
		func() {
			defer func() {
				pe, ok := recover().(*par.PanicError)
				if !ok {
					t.Fatalf("p=%d: recovered %T, want *par.PanicError", p, pe)
				}
				if pe.Index != 5 {
					t.Fatalf("p=%d: panic index = %d, want 5", p, pe.Index)
				}
			}()
			for _, err := range par.Run(nil, "", p, 20, false, func(_, i int) error {
				if i == 5 || i == 15 {
					panic(fmt.Sprintf("boom at %d", i))
				}
				return nil
			}) {
				if err != nil {
					panic(err)
				}
			}
			t.Fatalf("p=%d: Run reported no panic", p)
		}()
	}
}

// TestLowestIndexMixedFailures: an error and a panic compete; the lowest
// index wins whatever its failure mode, at any worker count.
func TestLowestIndexMixedFailures(t *testing.T) {
	sentinel := errors.New("plain error at 20")
	for _, p := range []int{1, 2, 8, 0} {
		for trial := 0; trial < 10; trial++ {
			err := run(p, 100, func(i int) error {
				switch i {
				case 20:
					return sentinel
				case 40:
					panic("later panic")
				}
				return nil
			})
			if !errors.Is(err, sentinel) {
				t.Fatalf("p=%d: got %v, want the index-20 error", p, err)
			}
		}
	}
}

// TestEarlyCancellation: after the first failure the pool stops claiming
// work. Index 0 fails immediately while every other task blocks on a gate
// that opens only once the pool has recorded the failure (closing it from
// task 0 itself would race the record: the task returns first); the pool
// must skip the remaining thousands of tasks instead of draining them.
func TestEarlyCancellation(t *testing.T) {
	const n = 10000
	gate := make(chan struct{})
	par.SetRecordedHook(func(i int) {
		if i == 0 {
			close(gate)
		}
	})
	defer par.SetRecordedHook(nil)
	var executed atomic.Int64
	err := run(4, n, func(i int) error {
		if i == 0 {
			return fmt.Errorf("fail at 0")
		}
		<-gate
		executed.Add(1)
		return nil
	})
	if err == nil || err.Error() != "fail at 0" {
		t.Fatalf("got error %v, want fail at 0", err)
	}
	// Only tasks already claimed before the failure was recorded may run:
	// at most one in-flight per worker, nowhere near n.
	if got := executed.Load(); got > 100 {
		t.Fatalf("pool drained %d of %d tasks after the first error", got, n)
	}
}

// TestSerialSkipsAfterPanic mirrors TestMapSerialStopsAtFirstError for the
// panic path: with one worker, nothing past the panicking index runs.
func TestSerialSkipsAfterPanic(t *testing.T) {
	var calls int
	err := run(1, 100, func(i int) error {
		calls++
		if i == 5 {
			panic("boom")
		}
		return nil
	})
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe.Index != 5 {
		t.Fatalf("got %v", err)
	}
	if calls != 6 {
		t.Fatalf("serial Run made %d calls after panic at index 5, want 6", calls)
	}
}

// TestMapAllLanesKeepGoing: under keepGoing every task runs despite failures
// and each error is reported at its index.
func TestMapAllLanesKeepGoing(t *testing.T) {
	for _, p := range []int{1, 4, 0} {
		var ran atomic.Int64
		out := make([]int, 50)
		errs := par.Run(nil, "frontend", p, 50, true, func(_, i int) error {
			ran.Add(1)
			switch i {
			case 10:
				return fmt.Errorf("error at 10")
			case 20:
				panic("panic at 20")
			}
			out[i] = i * i
			return nil
		})
		if got := ran.Load(); got != 50 {
			t.Fatalf("p=%d: keep-going ran %d of 50 tasks", p, got)
		}
		if errs == nil {
			t.Fatalf("p=%d: no errors collected", p)
		}
		for i := 0; i < 50; i++ {
			switch i {
			case 10:
				if errs[i] == nil || errs[i].Error() != "error at 10" {
					t.Fatalf("p=%d: errs[10] = %v", p, errs[i])
				}
			case 20:
				var pe *par.PanicError
				if !errors.As(errs[i], &pe) || pe.Index != 20 || pe.Stage != "frontend" {
					t.Fatalf("p=%d: errs[20] = %v", p, errs[i])
				}
			default:
				if errs[i] != nil {
					t.Fatalf("p=%d: unexpected errs[%d] = %v", p, i, errs[i])
				}
				if out[i] != i*i {
					t.Fatalf("p=%d: out[%d] = %d", p, i, out[i])
				}
			}
		}
	}
}

func TestMapAllLanesNoErrors(t *testing.T) {
	var ran atomic.Int64
	errs := par.Run(nil, "", 4, 20, true, func(_, i int) error { ran.Add(1); return nil })
	if errs != nil {
		t.Fatalf("errs = %v, want nil on full success", errs)
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d of 20 tasks", ran.Load())
	}
}

func TestRecovered(t *testing.T) {
	pe := &par.PanicError{Index: 3, Stage: "x", Value: "v"}
	if got := par.Recovered("other", 9, pe); got != pe {
		t.Fatal("Recovered re-wrapped an existing *PanicError")
	}
	got := par.Recovered("opt", -1, "raw value")
	if got.Index != -1 || got.Stage != "opt" || got.Value != "raw value" || len(got.Stack) == 0 {
		t.Fatalf("Recovered = %+v", got)
	}
	if !bytes.Contains([]byte(got.Error()), []byte("main goroutine")) {
		t.Fatalf("Error() = %q", got.Error())
	}
}
