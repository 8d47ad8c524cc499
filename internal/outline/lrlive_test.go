package outline_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"outliner/internal/outline"
)

// lrLiveDigest is the SHA-256 of the LR bit after every instruction of the
// UberRider-24 program and of each testdata/benchmarks program, as each
// outlining round reads it (the input of rounds one to five) and at the fixed
// point, recorded with full-register liveness before the outliner switched to
// a one-bit pass. Re-recorded when code generation began emitting canonical
// commutative operand order: the previous code, with its canonicalization
// pass run on codegen's output, gives the same digest.
const lrLiveDigest = "839e07cbf36284b645ddf201f8fa46672a7ba5fcc04231a58e450bdb38a18453"

// TestFrontierLRLiveGolden: the LR bit the cost model reads, at every
// instruction in every round, is the one full-register liveness computed.
func TestFrontierLRLiveGolden(t *testing.T) {
	progs := benchmarkPrograms(t)
	progs["UberRider-24"] = appgenProgram(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	slices.Sort(names)
	h := sha256.New()
	positions := 0
	for _, name := range names {
		prog := progs[name]
		record := func(round int) {
			bits := outline.LRBits(prog)
			positions += len(bits) - len(prog.Funcs)
			fmt.Fprintf(h, "%s after round %d\n", name, round)
			h.Write(bits)
		}
		record(0)
		if err := outline.EachRound(prog, outline.Options{Rounds: 5, Parallelism: 1}, func(round int, _ []int) {
			record(round)
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	t.Logf("%d instruction positions", positions)
	if got := hex.EncodeToString(h.Sum(nil)); got != lrLiveDigest {
		t.Errorf("LR-live digest %s, recorded %s", got, lrLiveDigest)
	}
}
