package par_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"outliner/internal/par"
)

// Test names keep the entry point each behaviour was first pinned through
// (Do, Map, MapLanes, MapAllLanes…): all of them are par.Run now, and the
// names stay so a test's history is one grep.

// first returns the lowest-index error of a Run result, or nil.
func first(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run is Run without context or stage, for tasks that only need the index.
func run(p, n int, f func(i int) error) error {
	return first(par.Run(nil, "", p, n, false, func(_, i int) error { return f(i) }))
}

func TestWorkers(t *testing.T) {
	cases := []struct{ p, n, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{1, 100, 1},
		{4, 2, 2},
		{4, 0, 1},
		{8, 8, 8},
	}
	for _, c := range cases {
		if got := par.Workers(c.p, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 4, 0} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := run(p, n, func(i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("p=%d: index %d executed %d times", p, i, got)
			}
		}
	}
}

func TestDoSerialIsInOrder(t *testing.T) {
	var order []int
	if err := run(1, 10, func(i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("serial Run made %d calls, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial Run out of order: %v", order)
		}
	}
}

func TestMapOrderedResults(t *testing.T) {
	for _, p := range []int{1, 3, 0} {
		out := make([]int, 100)
		if err := run(p, 100, func(i int) error { out[i] = i * i; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("p=%d: out[%d] = %d", p, i, v)
			}
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Indices 30 and 70 both fail; the reported error must always be 30's,
	// whatever the worker count or scheduling.
	for _, p := range []int{1, 2, 8, 0} {
		for trial := 0; trial < 10; trial++ {
			err := run(p, 100, func(i int) error {
				if i == 30 || i == 70 {
					return fmt.Errorf("fail at %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "fail at 30" {
				t.Fatalf("p=%d: got error %v, want fail at 30", p, err)
			}
		}
	}
}

func TestMapSerialStopsAtFirstError(t *testing.T) {
	var calls int
	sentinel := errors.New("boom")
	err := run(1, 100, func(i int) error {
		calls++
		if i == 5 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
	if calls != 6 {
		t.Fatalf("serial Run made %d calls after error at index 5, want 6", calls)
	}
}

// TestDoLanesCoversAllIndices: every index runs exactly once, every lane is
// within [0, effective workers), and one lane never runs two calls at once.
func TestDoLanesCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 4, 0} {
		const n = 500
		workers := par.Workers(p, n)
		var hits [n]atomic.Int32
		busy := make([]atomic.Int32, workers)
		errs := par.Run(nil, "", p, n, false, func(lane, i int) error {
			if lane < 0 || lane >= workers {
				t.Errorf("p=%d: lane %d out of range [0,%d)", p, lane, workers)
			}
			if busy[lane].Add(1) != 1 {
				t.Errorf("p=%d: lane %d ran two items concurrently", p, lane)
			}
			hits[i].Add(1)
			busy[lane].Add(-1)
			return nil
		})
		if errs != nil {
			t.Fatalf("p=%d: errs = %v, want nil on full success", p, errs)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("p=%d: index %d executed %d times", p, i, got)
			}
		}
	}
}

func TestMapLanesOrderedResults(t *testing.T) {
	for _, p := range []int{1, 3, 0} {
		out := make([]int, 100)
		errs := par.Run(nil, "", p, 100, false, func(lane, i int) error {
			if lane < 0 || lane >= par.Workers(p, 100) {
				return fmt.Errorf("lane %d out of range", lane)
			}
			out[i] = i * i
			return nil
		})
		if err := first(errs); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("p=%d: out[%d] = %d", p, i, v)
			}
		}
	}
}

func TestMapZeroItems(t *testing.T) {
	errs := par.Run(nil, "", 4, 0, false, func(_, i int) error { return errors.New("never") })
	if errs != nil {
		t.Fatalf("got %v", errs)
	}
}
