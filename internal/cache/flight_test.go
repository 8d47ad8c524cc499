package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func flightKey(n int) Key {
	return Key{Stage: "llir", Input: fmt.Sprintf("input-%d", n), Config: "cfg", Schema: 1}
}

// TestFlightDedupesConcurrentCalls is the core single-flight property: many
// concurrent callers on one key produce exactly one execution, and every
// caller receives the leader's bytes.
func TestFlightDedupesConcurrentCalls(t *testing.T) {
	f := newFlight()
	const callers = 32
	var execs atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, callers)
	shared := make([]bool, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, sh, err := f.Do(flightKey(0), func() ([]byte, error) {
				execs.Add(1)
				<-release // hold the flight open until every caller has arrived
				return []byte("artifact"), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = data
			shared[i] = sh
		}(i)
	}
	// Wait until the group has one leader and callers-1 waiters, then release.
	for {
		execsN, waits := f.Stats()
		if execsN == 1 && waits == callers-1 {
			break
		}
	}
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Fatalf("fn executed %d times, want exactly 1", n)
	}
	var sharedN int
	for i := range results {
		if string(results[i]) != "artifact" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if shared[i] {
			sharedN++
		}
	}
	if sharedN != callers-1 {
		t.Fatalf("%d callers reported shared, want %d", sharedN, callers-1)
	}
}

// TestFlightDistinctKeysDoNotShare: different keys never share an execution.
func TestFlightDistinctKeysDoNotShare(t *testing.T) {
	f := newFlight()
	var execs atomic.Int64
	var wg sync.WaitGroup
	const keys = 8
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := f.Do(flightKey(i), func() ([]byte, error) {
				execs.Add(1)
				return []byte(fmt.Sprintf("artifact-%d", i)), nil
			})
			if err != nil || string(data) != fmt.Sprintf("artifact-%d", i) {
				t.Errorf("key %d: data=%q err=%v", i, data, err)
			}
		}(i)
	}
	wg.Wait()
	if n := execs.Load(); n != keys {
		t.Fatalf("fn executed %d times, want %d (one per key)", n, keys)
	}
}

// TestFlightErrorsAreNotSticky: a failed execution is forgotten immediately;
// the next Do on the same key executes again and can succeed.
func TestFlightErrorsAreNotSticky(t *testing.T) {
	f := newFlight()
	boom := errors.New("boom")
	if _, _, err := f.Do(flightKey(0), func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v, want boom", err)
	}
	data, shared, err := f.Do(flightKey(0), func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(data) != "ok" {
		t.Fatalf("second Do = %q, shared=%t, err=%v; want fresh successful execution", data, shared, err)
	}
}

// TestFlightLeaderPanicReleasesWaiters: a panicking leader must propagate its
// panic (the pipeline's panic isolation depends on it) while waiters degrade
// to ErrFlightAborted instead of hanging.
func TestFlightLeaderPanicReleasesWaiters(t *testing.T) {
	f := newFlight()
	entered := make(chan struct{})

	var waitErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-entered
		_, _, waitErr = f.Do(flightKey(0), func() ([]byte, error) {
			t.Error("waiter executed fn after leader panic path was claimed")
			return nil, nil
		})
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		f.Do(flightKey(0), func() ([]byte, error) {
			close(entered)
			// Panic only once the waiter has joined the flight, so the test
			// deterministically exercises the abort path.
			for {
				if _, waits := f.Stats(); waits == 1 {
					break
				}
			}
			panic("injected leader panic")
		})
	}()
	wg.Wait()

	// The waiter either joined the doomed flight (ErrFlightAborted) or
	// arrived after cleanup and led its own execution — but the test's fn
	// errors in that case, so only the abort path is a valid success here.
	if waitErr != nil && !errors.Is(waitErr, ErrFlightAborted) {
		t.Fatalf("waiter err = %v, want ErrFlightAborted", waitErr)
	}
}
