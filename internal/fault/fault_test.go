package fault

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var inj *Injector
	if inj.Fires(CacheRead, "x", ErrorKind) {
		t.Fatal("nil injector fired")
	}
	if err := inj.MaybeError(CacheRead, "x"); err != nil {
		t.Fatalf("nil injector returned %v", err)
	}
	inj.MaybePanic(WorkerTask, "x") // must not panic
	data := []byte("payload")
	if got := inj.MaybeCorrupt(CacheRead, "x", data); !bytes.Equal(got, data) {
		t.Fatal("nil injector corrupted data")
	}
	if len(inj.DrainCounters()) != 0 {
		t.Fatal("nil injector counted injections")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	zero := New(42, 0)
	one := New(42, 1)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%d", i)
		if zero.Fires(CacheRead, key, ErrorKind) {
			t.Fatalf("rate-0 injector fired at %s", key)
		}
		if !one.Fires(CacheRead, key, ErrorKind) {
			t.Fatalf("rate-1 injector silent at %s", key)
		}
	}
}

// TestDeterministicSchedule: decisions depend only on (seed, site, key) — not
// on call order or prior calls — and distinct seeds give distinct schedules.
func TestDeterministicSchedule(t *testing.T) {
	decide := func(seed uint64, keys []string) []bool {
		inj := New(seed, 0.3)
		out := make([]bool, len(keys))
		for i, k := range keys {
			out[i] = inj.Fires(CacheRead, k, ErrorKind)
		}
		return out
	}
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("entry-%d", i)
	}
	a := decide(7, keys)
	b := decide(7, keys)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 disagreed with itself at %s: %t vs %t", keys[i], a[i], b[i])
		}
	}
	// Reversed call order must not change anything.
	inj := New(7, 0.3)
	for i := len(keys) - 1; i >= 0; i-- {
		if got := inj.Fires(CacheRead, keys[i], ErrorKind); got != a[i] {
			t.Fatalf("call order changed decision at %s", keys[i])
		}
	}
	c := decide(8, keys)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

func TestRateIsApproximatelyHonored(t *testing.T) {
	inj := New(11, 0.25)
	fired := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if inj.Fires(CacheRead, fmt.Sprintf("k%d", i), ErrorKind) {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.18 || frac > 0.32 {
		t.Fatalf("rate 0.25 fired %.3f of points", frac)
	}
}

func TestExactScript(t *testing.T) {
	inj := Exact(
		At{Site: OutlineRound, Key: "round:3", Kind: CorruptKind},
		At{Site: CacheRead, Key: "e#0", Kind: ErrorKind, Transient: true},
	)
	if !inj.Fires(OutlineRound, "round:3", CorruptKind) {
		t.Fatal("scripted corrupt point did not fire")
	}
	if inj.Fires(OutlineRound, "round:2", CorruptKind) {
		t.Fatal("unscripted point fired")
	}
	err := inj.MaybeError(CacheRead, "e#0")
	var fe *Error
	if !errors.As(err, &fe) || !fe.Transient {
		t.Fatalf("scripted error = %v", err)
	}
	if err := inj.MaybeError(CacheRead, "e#1"); err != nil {
		t.Fatalf("unscripted key errored: %v", err)
	}
	// A scripted ErrorKind point never panics or corrupts.
	inj.MaybePanic(CacheRead, "e#0")
	if inj.Fires(CacheRead, "e#0", CorruptKind) {
		t.Fatal("error-scripted point corrupted")
	}
	if c := inj.DrainCounters(); len(c) != 2 || c["fault/"+string(OutlineRound)] != 1 || c["fault/"+string(CacheRead)] != 1 {
		t.Fatalf("counters = %v, want one outline round and one cache read", c)
	}
}

func TestMaybePanicCarriesSiteAndKey(t *testing.T) {
	inj := Exact(At{Site: WorkerTask, Key: "ModuleA", Kind: PanicKind})
	defer func() {
		r := recover()
		p, ok := r.(*Panic)
		if !ok || p.Site != WorkerTask || p.Key != "ModuleA" {
			t.Fatalf("recovered %#v", r)
		}
	}()
	inj.MaybePanic(WorkerTask, "ModuleA")
	t.Fatal("MaybePanic did not panic")
}

func TestMaybeCorruptCopies(t *testing.T) {
	inj := Exact(At{Site: CacheRead, Key: "e", Kind: CorruptKind})
	orig := []byte("some cached artifact payload")
	saved := append([]byte(nil), orig...)
	got := inj.MaybeCorrupt(CacheRead, "e", orig)
	if !bytes.Equal(orig, saved) {
		t.Fatal("MaybeCorrupt mutated its input")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("MaybeCorrupt returned unchanged bytes")
	}
	// Deterministic: the same corruption every time.
	again := inj.MaybeCorrupt(CacheRead, "e", orig)
	if !bytes.Equal(got, again) {
		t.Fatal("corruption is not deterministic")
	}
}

func TestCounters(t *testing.T) {
	inj := New(3, 1)
	_ = inj.MaybeError(CacheRead, "a")
	_ = inj.MaybeError(CacheRead, "b")
	_ = inj.MaybeError(CacheWrite, "c")
	c := inj.DrainCounters()
	if c["fault/"+string(CacheRead)] != 2 || c["fault/"+string(CacheWrite)] != 1 {
		t.Fatalf("counters = %v", c)
	}
	// A drain hands each injection out once.
	_ = inj.MaybeError(CacheRead, "d")
	if c := inj.DrainCounters(); len(c) != 1 || c["fault/"+string(CacheRead)] != 1 {
		t.Fatalf("second drain = %v, want the one new cache read", c)
	}
}

func TestIsInjected(t *testing.T) {
	err := fmt.Errorf("pipeline: module A: %w", &Error{Site: CacheRead, Key: "e#0"})
	if !IsInjected(err) {
		t.Fatal("wrapped injected error not recognized")
	}
	if IsInjected(errors.New("disk on fire")) {
		t.Fatal("ordinary error recognized as injected")
	}
}
