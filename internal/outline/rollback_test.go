package outline

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"outliner/internal/fault"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/verify"
)

// multiRoundProgram outlines in at least two rounds (the long/short pattern
// from TestRepeatedOutliningBeatsSingleRound).
func multiRoundProgram(t *testing.T) *mir.Program {
	t.Helper()
	long := []string{
		"MOVZXi $x1, #1",
		"ORRXrs $x2, $xzr, $x1",
		"ADDXrs $x3, $x2, $x1",
		"EORXrs $x4, $x3, $x2",
		"ANDXrs $x5, $x4, $x3",
	}
	suffix := long[2:]
	var src strings.Builder
	for i := 0; i < 4; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("long%d", i),
			append(append([]string{}, long...), fmt.Sprintf("MOVZXi $x6, #%d", i))...))
	}
	for i := 0; i < 12; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("short%d", i),
			append(append([]string{}, suffix...), fmt.Sprintf("MOVZXi $x7, #%d", 100+i))...))
	}
	return mustParse(t, src.String())
}

// corruptRound2 arms the OutlineRound fault point for whole-program round 2.
func corruptRound2() *fault.Injector {
	return fault.Exact(fault.At{Site: fault.OutlineRound, Key: "/round:2", Kind: fault.CorruptKind})
}

// TestRollbackRoundShedsTheBadRound: a corrupted round 2 under
// rollback-round yields exactly the clean one-round program — byte-for-byte
// via the lossless MIR text — with the rollback visible in stats, counters,
// and remarks, and no error.
func TestRollbackRoundShedsTheBadRound(t *testing.T) {
	want := multiRoundProgram(t)
	if _, err := Outline(want, Options{Rounds: 1, Verify: true, ExternSyms: externRT}); err != nil {
		t.Fatal(err)
	}

	got := multiRoundProgram(t)
	tr := obs.New()
	st, err := Outline(got, Options{
		Rounds: 5, Verify: true, ExternSyms: externRT,
		OnVerifyFailure: VerifyRollbackRound,
		Fault:           corruptRound2(),
		Tracer:          tr,
	})
	if err != nil {
		t.Fatalf("rollback mode returned error: %v", err)
	}
	if a, b := got.String(), want.String(); a != b {
		t.Fatalf("rolled-back program differs from the clean 1-round program:\n%s\nvs\n%s", a, b)
	}
	if len(st.Rounds) != 1 {
		t.Fatalf("stats kept %d rounds, want 1 (round 2 shed): %+v", len(st.Rounds), st.Rounds)
	}
	if c := tr.Counters()["outline/rounds_rolled_back"]; c != 1 {
		t.Fatalf("outline/rounds_rolled_back = %d, want 1", c)
	}
	var rb *obs.Remark
	for i, r := range tr.Remarks() {
		if r.Status == "rolled-back" {
			rb = &tr.Remarks()[i]
		}
	}
	if rb == nil || rb.Round != 2 || !strings.Contains(rb.Reason, "violation") {
		t.Fatalf("rollback remark missing or wrong: %+v", rb)
	}
}

// TestDisableOutliningRestoresOriginal: disable-outlining rolls all the way
// back to the never-outlined program.
func TestDisableOutliningRestoresOriginal(t *testing.T) {
	p := multiRoundProgram(t)
	before := p.String()
	tr := obs.New()
	st, err := Outline(p, Options{
		Rounds: 5, Verify: true, ExternSyms: externRT,
		OnVerifyFailure: VerifyDisableOutlining,
		Fault:           corruptRound2(),
		Tracer:          tr,
	})
	if err != nil {
		t.Fatalf("disable-outlining returned error: %v", err)
	}
	if p.String() != before {
		t.Fatal("program not restored to its pre-outlining form")
	}
	if len(st.Rounds) != 0 {
		t.Fatalf("stats kept %d rounds, want 0", len(st.Rounds))
	}
	if c := tr.Counters()["outline/rounds_rolled_back"]; c != 2 {
		t.Fatalf("outline/rounds_rolled_back = %d, want 2 (both rounds undone)", c)
	}
}

// TestAbortModeStillFails: the default mode reports the corrupted round as a
// typed verifier error naming the round.
func TestAbortModeStillFails(t *testing.T) {
	p := multiRoundProgram(t)
	_, err := Outline(p, Options{
		Rounds: 5, Verify: true, ExternSyms: externRT,
		Fault: corruptRound2(),
	})
	var ve *verify.Error
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want a wrapped *verify.Error", err)
	}
	if !strings.Contains(err.Error(), "round 2") {
		t.Fatalf("error does not name the round: %v", err)
	}
}

// TestRollbackWithoutFaultIsFree: with no verifier failure the degraded
// modes change nothing — same program, same stats as abort mode.
func TestRollbackWithoutFaultIsFree(t *testing.T) {
	base := multiRoundProgram(t)
	stBase, err := Outline(base, Options{Rounds: 5, Verify: true, ExternSyms: externRT})
	if err != nil {
		t.Fatal(err)
	}
	p := multiRoundProgram(t)
	st, err := Outline(p, Options{
		Rounds: 5, Verify: true, ExternSyms: externRT,
		OnVerifyFailure: VerifyRollbackRound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != base.String() {
		t.Fatal("rollback-round mode changed a clean build's output")
	}
	if len(st.Rounds) != len(stBase.Rounds) {
		t.Fatalf("stats diverged: %d vs %d rounds", len(st.Rounds), len(stBase.Rounds))
	}
}

// TestUnknownVerifyModeRejected: a mode outside the list — here a plausible
// typo — fails before the first round instead of degrading like
// rollback-round, and leaves the program untouched.
func TestUnknownVerifyModeRejected(t *testing.T) {
	p := multiRoundProgram(t)
	before := p.String()
	if _, err := Outline(p, Options{Rounds: 5, Verify: true, ExternSyms: externRT, OnVerifyFailure: "rollback"}); err == nil {
		t.Fatal(`OnVerifyFailure "rollback" was accepted`)
	}
	if p.String() != before {
		t.Fatal("a rejected call changed the program")
	}
}

// TestStatsAddSumsRoundByRound: a per-module build's stats are its modules'
// summed round by round. Modules reach their fixed points at different
// rounds, a rolled-back module adds only the rounds it kept, and one whose
// outlining was disabled adds nothing.
func TestStatsAddSumsRoundByRound(t *testing.T) {
	rolled, err := Outline(multiRoundProgram(t), Options{
		Rounds: 5, Verify: true, ExternSyms: externRT,
		OnVerifyFailure: VerifyRollbackRound,
		Fault:           corruptRound2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.Rounds) != 1 {
		t.Fatalf("rolled-back module kept %d rounds, want 1", len(rolled.Rounds))
	}
	r1 := rolled.Rounds[0]
	threeRounds := &Stats{Rounds: []RoundStats{
		{Round: 1, SequencesOutlined: 10, FunctionsCreated: 3, OutlinedBytes: 40, BytesSaved: 100},
		{Round: 2, SequencesOutlined: 2, FunctionsCreated: 1, OutlinedBytes: 8, BytesSaved: 12},
		{Round: 3},
	}}
	var sum Stats
	for _, m := range []*Stats{rolled, threeRounds, {Rounds: []RoundStats{}}} {
		sum.Add(m)
	}
	want := []RoundStats{
		{Round: 1, SequencesOutlined: 10 + r1.SequencesOutlined, FunctionsCreated: 3 + r1.FunctionsCreated,
			OutlinedBytes: 40 + r1.OutlinedBytes, BytesSaved: 100 + r1.BytesSaved},
		{Round: 2, SequencesOutlined: 2, FunctionsCreated: 1, OutlinedBytes: 8, BytesSaved: 12},
		{Round: 3},
	}
	if !reflect.DeepEqual(sum.Rounds, want) {
		t.Errorf("summed rounds\n got %+v\nwant %+v", sum.Rounds, want)
	}
	if got, want := sum.TotalSequences(), rolled.TotalSequences()+threeRounds.TotalSequences(); got != want {
		t.Errorf("TotalSequences = %d, want %d", got, want)
	}
}
