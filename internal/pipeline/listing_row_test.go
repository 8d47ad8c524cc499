package pipeline

import (
	"fmt"
	"math"
	"testing"

	"outliner/internal/binimg"
)

// TestSymbolRowMatchesFormat pins the hand-laid symbol row to the fmt verb it
// replaced, including addresses and sizes wider than their columns.
func TestSymbolRowMatchesFormat(t *testing.T) {
	for _, s := range []binimg.Symbol{
		{Name: "main", Addr: 0, Size: 0, Code: true},
		{Name: "gcd", Addr: 0x38, Size: 164, Code: true},
		{Name: "T.meta$1", Addr: 0xfffffffff, Size: 999999},
		{Name: "wide", Addr: 0x10000000000, Size: 1000000, Code: true},
		{Name: "", Addr: math.MaxInt64, Size: math.MaxInt64},
	} {
		kind := "data"
		if s.Code {
			kind = "code"
		}
		want := fmt.Sprintf("  %-4s %#010x %6d %s\n", kind, s.Addr, s.Size, s.Name)
		if got := string(appendSymbolRow([]byte("x"), &s)); got != "x"+want {
			t.Errorf("appendSymbolRow(%+v) = %q, fmt renders %q", s, got, "x"+want)
		}
	}
}
