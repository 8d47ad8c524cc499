package difftest

import (
	"errors"
	"fmt"

	"outliner/internal/appgen"
	"outliner/internal/exec"
	"outliner/internal/layout"
	"outliner/internal/mir"
	"outliner/internal/profile"
)

// Class classifies how two lattice points disagree.
type Class int

const (
	// ClassAgree: the points agree (or the comparison is inconclusive
	// because the reference exhausted its step budget).
	ClassAgree Class = iota
	// ClassBuildError: the aggressive point failed to build or verify a
	// program the reference built fine.
	ClassBuildError
	// ClassOutputMismatch: both runs completed but printed different output.
	ClassOutputMismatch
	// ClassTrapMismatch: one run trapped (BRK, bad memory, division by
	// zero...) where the other did not, or they trapped differently.
	ClassTrapMismatch
	// ClassBudget: the aggressive point ran away — it exhausted a step
	// budget far beyond what the reference needed to finish.
	ClassBudget
)

func (c Class) String() string {
	switch c {
	case ClassAgree:
		return "agree"
	case ClassBuildError:
		return "build-error"
	case ClassOutputMismatch:
		return "output-mismatch"
	case ClassTrapMismatch:
		return "trap-mismatch"
	case ClassBudget:
		return "budget-divergence"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Outcome is one point's build-and-run result.
type Outcome struct {
	Point    string
	BuildErr error       // compile/verify failure; everything below is zero
	Output   string      // what @main printed (possibly partial, on RunErr)
	Steps    int64       // dynamic instructions executed
	RunErr   *exec.Error // non-nil when execution stopped abnormally
}

// Divergence is a confirmed disagreement between two lattice points.
type Divergence struct {
	Class    Class
	Ref, Got Outcome
	Detail   string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("%s between %s and %s: %s", d.Class, d.Ref.Point, d.Got.Point, d.Detail)
}

// Oracle builds and executes programs and decides whether lattice points
// agree.
type Oracle struct {
	// MaxSteps bounds each execution (0 = 100M).
	MaxSteps int64
	// Corrupt, when non-nil, mutates each built machine program before
	// execution — the miscompile-injection hook the reducer's acceptance
	// test uses (see CorruptOutlined). Points without outlined functions
	// are naturally unaffected by outlined-sequence corruption, which is
	// what makes the injected bug show up as a lattice divergence.
	Corrupt func(*mir.Program)
}

func (o *Oracle) maxSteps() int64 {
	if o.MaxSteps > 0 {
		return o.MaxSteps
	}
	return 100_000_000
}

// Build compiles mods at one lattice point (Verify forced on) and returns
// the machine program, without the Corrupt hook applied.
func (o *Oracle) Build(mods []appgen.Module, pt Point) (*mir.Program, error) {
	cfg := pt.Config
	cfg.Verify = true
	res, err := appgen.BuildGenerated(mods, cfg)
	if err != nil {
		return nil, err
	}
	return res.Prog, nil
}

// Run builds mods at one lattice point and executes @main.
func (o *Oracle) Run(mods []appgen.Module, pt Point) Outcome {
	return o.run(mods, pt, nil)
}

// run is Run with optional profile collection on the executed program.
func (o *Oracle) run(mods []appgen.Module, pt Point, col *profile.Collector) Outcome {
	out := Outcome{Point: pt.Name}
	prog, err := o.Build(mods, pt)
	if err != nil {
		out.BuildErr = err
		return out
	}
	if o.Corrupt != nil {
		o.Corrupt(prog)
	}
	m, err := exec.New(prog, exec.Options{MaxSteps: o.maxSteps(), Profile: col})
	if err != nil {
		out.BuildErr = err
		return out
	}
	got, err := m.Run("main")
	out.Output = got
	out.Steps = m.Stats().DynamicInsts
	if err != nil {
		var e *exec.Error
		if !errors.As(err, &e) {
			e = &exec.Error{Kind: exec.KindTrap, Msg: err.Error()}
		}
		out.RunErr = e
	}
	return out
}

// Compare classifies got against the reference outcome ref. The reference
// must have built (callers gate on ref.BuildErr first).
//
// Step-budget handling: if the reference itself exhausted the budget the
// comparison is inconclusive (ClassAgree). If only got exhausted it, that is
// a divergence only when the budget dwarfs the reference's actual step
// count — outlining perturbs dynamic instruction counts by a few percent,
// so a 4x margin separates genuine runaways from boundary effects.
func Compare(ref, got Outcome) (Class, string) {
	if got.BuildErr != nil {
		return ClassBuildError, fmt.Sprintf("%s failed to build: %v", got.Point, got.BuildErr)
	}
	refExhausted := ref.RunErr != nil && ref.RunErr.Kind == exec.KindMaxSteps
	gotExhausted := got.RunErr != nil && got.RunErr.Kind == exec.KindMaxSteps
	switch {
	case refExhausted:
		return ClassAgree, "reference exhausted its step budget; inconclusive"
	case gotExhausted:
		if ref.RunErr == nil && got.RunErr.Step >= 4*ref.Steps {
			return ClassBudget, fmt.Sprintf(
				"%s finished in %d steps but %s was still running after %d",
				ref.Point, ref.Steps, got.Point, got.RunErr.Step)
		}
		return ClassAgree, "step budget too tight to compare; inconclusive"
	}
	if (ref.RunErr == nil) != (got.RunErr == nil) {
		return ClassTrapMismatch, fmt.Sprintf("%s: %v, but %s: %v",
			ref.Point, outcomeErr(ref), got.Point, outcomeErr(got))
	}
	if ref.RunErr != nil && ref.RunErr.Kind != got.RunErr.Kind {
		return ClassTrapMismatch, fmt.Sprintf("%s trapped with %s, %s with %s",
			ref.Point, ref.RunErr.Kind, got.Point, got.RunErr.Kind)
	}
	if ref.Output != got.Output {
		return ClassOutputMismatch, fmt.Sprintf("%s printed %q, %s printed %q",
			ref.Point, clip(ref.Output), got.Point, clip(got.Output))
	}
	return ClassAgree, ""
}

func outcomeErr(o Outcome) string {
	if o.RunErr == nil {
		return "ran to completion"
	}
	return o.RunErr.Error()
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}

// Check runs every point and compares each against the first (the
// reference). It returns a Divergence when two points disagree, an error
// when the input itself is unbuildable (the reference fails), and (nil,
// nil) when all points agree.
//
// The reference run is instrumented, and its execution profile is injected
// into any profile-consuming point — cold-only outlining or the c3
// function-layout policy — that does not already carry one, so both
// profile-gated axes are exercised against the exact dynamic behaviour the
// oracle is about to compare.
func (o *Oracle) Check(mods []appgen.Module, pts []Point) (*Divergence, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("difftest: need at least 2 lattice points, have %d", len(pts))
	}
	col := profile.NewCollector()
	ref := o.run(mods, pts[0], col)
	if ref.BuildErr != nil {
		return nil, fmt.Errorf("difftest: reference %s failed to build: %w", pts[0].Name, ref.BuildErr)
	}
	refProf := col.Profile()
	for _, pt := range pts[1:] {
		if (pt.Config.OutlineColdThreshold > 0 || pt.Config.Layout == layout.C3) && pt.Config.Profile == nil {
			pt.Config.Profile = refProf
		}
		got := o.Run(mods, pt)
		if cls, detail := Compare(ref, got); cls != ClassAgree {
			return &Divergence{Class: cls, Ref: ref, Got: got, Detail: detail}, nil
		}
	}
	return nil, nil
}
