package outline

import (
	"fmt"
	"strings"
	"testing"

	"outliner/internal/isa"
)

// TestMapperRoundTrip checks the mapping invariants the repeat finder relies
// on: the flattened string and the location table stay aligned, every
// shared symbol round-trips to the exact instruction it was minted from,
// identical legal instructions share one symbol, and every illegal
// instruction and block boundary gets a unique negative sentinel.
func TestMapperRoundTrip(t *testing.T) {
	p := mustParse(t, `
func @a {
entry:
  STPXpre $x29, $x30, $sp, #-16
  MOVZXi $x1, #7
  ADDXrs $x2, $x1, $x1
  CMPXri $x2, #3
  Bcc.lt @tail
body:
  MOVZXi $x1, #7
  ADDXrs $x2, $x1, $x1
tail:
  LDPXpost $x29, $x30, $sp, #16
  RET
}
func @b {
entry:
  MOVZXi $x1, #7
  ADDXrs $x2, $x1, $x1
  RET
}
`)
	m := &mapping{}
	if err := m.remap(p); err != nil {
		t.Fatal(err)
	}
	if len(m.str) != len(m.locs) {
		t.Fatalf("str (%d) and locs (%d) misaligned", len(m.str), len(m.locs))
	}

	blocks := 0
	seenSentinels := map[int]bool{}
	idByInst := map[isa.Inst]int{}
	for i, sym := range m.str {
		l := m.locs[i]
		if l.fn == -1 {
			// Block-boundary sentinel.
			blocks++
			if sym >= 0 || seenSentinels[sym] {
				t.Fatalf("boundary sentinel at %d not unique-negative: %d", i, sym)
			}
			seenSentinels[sym] = true
			continue
		}
		in := p.Funcs[l.fn].Blocks[l.block].Insts[l.inst]
		if sym < 0 {
			if legalForOutlining(in) {
				t.Errorf("legal instruction %v got sentinel %d", in, sym)
			}
			if seenSentinels[sym] {
				t.Errorf("sentinel %d reused", sym)
			}
			seenSentinels[sym] = true
			continue
		}
		if !legalForOutlining(in) {
			t.Errorf("illegal instruction %v got shared symbol %d", in, sym)
		}
		// Round trip: the symbol's canonical instruction is this instruction.
		if m.insts[sym] != in {
			t.Errorf("symbol %d canonical %v, loc holds %v", sym, m.insts[sym], in)
		}
		if prev, ok := idByInst[in]; ok && prev != sym {
			t.Errorf("instruction %v mapped to both %d and %d", in, prev, sym)
		}
		idByInst[in] = sym
	}
	if want := 4; blocks != want {
		t.Errorf("boundary sentinels = %d, want %d (one per block)", blocks, want)
	}

	// The repeated pair [MOVZ #7, ADD] must appear three times under the
	// same two symbols — that is the repeat the finder finds.
	movz := isa.Inst{Op: isa.MOVZ, Rd: isa.X1, Imm: 7}
	pairStarts := 0
	for i := 0; i+1 < len(m.str); i++ {
		if m.str[i] >= 0 && m.insts[m.str[i]] == movz &&
			m.str[i+1] >= 0 && m.insts[m.str[i+1]].Op == isa.ADDrs {
			pairStarts++
			// instsAt must hand back exactly that contiguous run.
			got := m.instsAt(p, i, 2)
			if len(got) != 2 || got[0] != movz || got[1].Op != isa.ADDrs {
				t.Errorf("instsAt(%d, 2) = %v", i, got)
			}
		}
	}
	if pairStarts != 3 {
		t.Errorf("repeated pair found %d times in mapping, want 3", pairStarts)
	}
}

// TestMapperIncludesOutlinedFunctions drives the real cascade: after round
// one creates outlined functions, the next round's mapping must include
// their bodies and call sites (outlined-from-outlined symbols) — the
// re-mapping that makes repeated outlining (§V-B, Figure 11) work at all.
func TestMapperIncludesOutlinedFunctions(t *testing.T) {
	var src strings.Builder
	long := []string{
		"MOVZXi $x1, #1",
		"ORRXrs $x2, $xzr, $x1",
		"ADDXrs $x3, $x2, $x1",
		"EORXrs $x4, $x3, $x2",
		"ANDXrs $x5, $x4, $x3",
	}
	suffix := long[2:]
	for i := 0; i < 4; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("long%d", i),
			append(append([]string{}, long...), fmt.Sprintf("MOVZXi $x6, #%d", i))...))
	}
	for i := 0; i < 12; i++ {
		src.WriteString(framedFunc(fmt.Sprintf("short%d", i),
			append(append([]string{}, suffix...), fmt.Sprintf("MOVZXi $x7, #%d", 100+i))...))
	}
	p := mustParse(t, src.String())
	st := outlineProg(t, p, 5)
	if len(st.Rounds) < 2 || st.Rounds[1].SequencesOutlined == 0 {
		t.Fatalf("cascade did not reach round 2: %+v", st.Rounds)
	}

	// At least one outlined function must transfer control to another
	// outlined function: round 2 harvested a sequence overlapping round 1's
	// output.
	outlined := map[string]bool{}
	for _, f := range p.Funcs {
		if f.Outlined {
			outlined[f.Name] = true
		}
	}
	if len(outlined) < 2 {
		t.Fatalf("outlined functions = %d, want a cascade", len(outlined))
	}
	cascaded := false
	for _, f := range p.Funcs {
		if !f.Outlined {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Insts {
				if (in.Op == isa.B || in.Op == isa.BL) && outlined[in.Sym] {
					cascaded = true
				}
			}
		}
	}
	if !cascaded {
		t.Error("no outlined function references another outlined function")
	}

	// The post-cascade mapping must cover every outlined function's body so
	// a further round could keep harvesting.
	m := &mapping{}
	if err := m.remap(p); err != nil {
		t.Fatal(err)
	}
	covered := map[int]bool{}
	for _, l := range m.locs {
		if l.fn >= 0 {
			covered[int(l.fn)] = true
		}
	}
	for fi, f := range p.Funcs {
		if f.Outlined && !covered[fi] {
			t.Errorf("outlined %s missing from the mapping", f.Name)
		}
	}
}
