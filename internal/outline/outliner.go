package outline

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"outliner/internal/fault"
	"outliner/internal/isa"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/par"
	"outliner/internal/profile"
	"outliner/internal/suffixtree"
	"outliner/internal/verify"
)

// Options configures the outliner.
type Options struct {
	// Rounds is the number of outlining passes (the paper's
	// -outline-repeat-count). 1 reproduces LLVM's single-pass greedy
	// behaviour; the paper ships 5.
	Rounds int
	// FlatCostModel is an ablation switch: cost every candidate as if the
	// link register always had to be saved and restored, discarding the
	// strategy-specific costing (tail call / thunk / no-LR-save).
	FlatCostModel bool
	// FuncPrefix names created functions; default "OUTLINED_FUNCTION_".
	FuncPrefix string
	// Verify re-checks program invariants after every round.
	Verify bool
	// ExternSyms lists symbols that may be called without a definition
	// (runtime entry points); used only when Verify is set.
	ExternSyms map[string]bool
	// Parallelism bounds the workers that build candidate sets. 0 means one
	// worker per CPU, 1 is fully serial. The outliner's output is
	// byte-identical for every value: candidate sets are put in a total order
	// before greedy selection, which stays serial.
	Parallelism int
	// Tracer receives per-round stage spans, counters, and one decision
	// remark per candidate set (selected or rejected, with the reason).
	// Telemetry is strictly observational — the transformed program is
	// byte-identical with Tracer set or nil.
	Tracer *obs.Tracer
	// TraceLane is the trace track outlining spans land on: 0 for
	// whole-program outlining on the main goroutine; per-module outlining
	// inside a parallel build passes its worker lane so concurrent rounds
	// render on separate tracks.
	TraceLane int
	// RemarkModule tags emitted remarks with the module being outlined
	// (empty for whole-program outlining).
	RemarkModule string
	// OnVerifyFailure selects what happens when Verify flags a violation
	// after a round: VerifyAbort (the default) fails the build with the
	// verifier's diagnostic; VerifyRollbackRound restores the pre-round
	// program and stops outlining with the rounds so far; and
	// VerifyDisableOutlining restores the program as it was before any
	// outlining. The degraded modes trade size for safety — the build
	// produces a correct, less-outlined image instead of failing.
	OnVerifyFailure string
	// Fault arms deterministic fault injection: an OutlineRound corruption
	// point fires after a round's rewrites (only when Verify is on, so the
	// damage is always caught) to exercise the verifier + rollback path.
	Fault *fault.Injector
	// Profile supplies execution counts from an instrumented run. With a
	// profile set, every candidate remark is annotated with the entry count
	// of the hottest function hosting an occurrence and a hot/cold verdict.
	Profile *profile.Profile
	// ColdThreshold, when positive and a Profile is set, restricts
	// extraction to cold code (the BOLT outliner's --outliner-cold-only with
	// --outliner-cold-threshold): occurrences hosted in a function whose
	// profile entry count reaches it are skipped, so hot paths are never
	// outlined. Without a Profile, or at 0, nothing is gated and the outliner
	// is byte-identical to an unprofiled build. It also sets the remark
	// verdict boundary, where a non-positive value counts as 1: any observed
	// entry marks a function hot.
	ColdThreshold int64
}

const (
	// minLength is the minimum candidate length in instructions: single
	// instructions can never be replaced profitably on a fixed-width ISA.
	minLength = 2
	// minBenefit is the minimum byte saving for a pattern to be outlined:
	// the paper's "at least one-byte size saving".
	minBenefit = 1
)

// Options.OnVerifyFailure values.
const (
	VerifyAbort            = "abort"
	VerifyRollbackRound    = "rollback-round"
	VerifyDisableOutlining = "disable-outlining"
)

// verifyModes is the one list of OnVerifyFailure modes every driver accepts.
var verifyModes = []string{VerifyAbort, VerifyRollbackRound, VerifyDisableOutlining}

// CheckVerifyMode rejects an OnVerifyFailure value that is neither "" (which
// means VerifyAbort) nor one of the modes.
func CheckVerifyMode(mode string) error {
	if mode == "" || slices.Contains(verifyModes, mode) {
		return nil
	}
	return fmt.Errorf("unknown on-verify-failure mode %q (want %s)", mode, strings.Join(verifyModes, ", "))
}

func (o Options) withDefaults() Options {
	if o.FuncPrefix == "" {
		o.FuncPrefix = "OUTLINED_FUNCTION_"
	}
	if o.OnVerifyFailure == "" {
		o.OnVerifyFailure = VerifyAbort
	}
	return o
}

// RoundStats reports one outlining round (one column of the paper's
// Table II, except Table II reports cumulative values).
type RoundStats struct {
	Round             int
	SequencesOutlined int // candidates replaced with calls/branches
	FunctionsCreated  int
	OutlinedBytes     int // bytes consumed by the created functions
	BytesSaved        int // net code-size reduction achieved this round
}

// Stats aggregates all rounds: entry i of Rounds is round i+1. A per-module
// build's Stats is its modules' summed round by round (see Add); Table II's
// cumulative rows are running sums over Rounds.
type Stats struct {
	Rounds []RoundStats
}

// Add sums o into s round by round: o's round i is added to s's round i, and
// s grows to the longer of the two, so modules that reached their fixed point
// (or rolled rounds back) at different rounds add only the rounds they kept.
func (s *Stats) Add(o *Stats) {
	for i, r := range o.Rounds {
		if i == len(s.Rounds) {
			s.Rounds = append(s.Rounds, RoundStats{Round: i + 1})
		}
		t := &s.Rounds[i]
		t.SequencesOutlined += r.SequencesOutlined
		t.FunctionsCreated += r.FunctionsCreated
		t.OutlinedBytes += r.OutlinedBytes
		t.BytesSaved += r.BytesSaved
	}
}

// TotalSequences returns the cumulative number of outlined sequences.
func (s *Stats) TotalSequences() int {
	n := 0
	for _, r := range s.Rounds {
		n += r.SequencesOutlined
	}
	return n
}

// TotalFunctions returns the cumulative number of created functions.
func (s *Stats) TotalFunctions() int {
	n := 0
	for _, r := range s.Rounds {
		n += r.FunctionsCreated
	}
	return n
}

// strategy is how a candidate set is turned into an outlined function.
type strategy uint8

const (
	stratTailCall strategy = iota // sequence ends in RET: B to function
	stratThunk                    // sequence ends in BL: prefix + tail call
	stratPlain                    // sequence needs an added return
)

func (s strategy) String() string {
	switch s {
	case stratTailCall:
		return "tail-call"
	case stratThunk:
		return "thunk"
	default:
		return "plain"
	}
}

// candidate is one occurrence of a repeated sequence. Its length is its
// set's, and mapping.locs says where in the program it sits.
type candidate struct {
	start  int32 // position in the flattened string
	lrLive bool  // LR holds a live value after the candidate
}

// candSet is a repeated sequence plus every (non-overlapping) occurrence.
// One is made per repeat per round, so it is kept to 64 bytes: the sequence
// is named by its smallest start in the flattened string (mapping.instsAt
// reads it), and byte counts are int32 like posSum's.
type candSet struct {
	at, length int32 // the smallest start of an occurrence, and the sequence length
	seqBytes   int32
	frameBytes int32 // extra bytes in the outlined function beyond the sequence
	// ben caches benefit() so the greedy sort's comparator does not re-walk
	// the candidate list O(n log n) times; it is recomputed only after
	// occurrence pruning changes cands.
	ben int32
	// gated counts occurrences dropped by cold-only gating; it distinguishes
	// the "hot-function" rejection from "too-few-occurrences".
	gated int32
	cands []candidate
	// execCount annotates the set's remark when a profile fed the build: the
	// entry count of the hottest function hosting any (non-overlapping)
	// occurrence. The remark's hot/cold verdict is derived from it.
	execCount int64
	strat     strategy
	hasCall   bool // any BL/BLR inside the sequence (excluding a thunk tail)
	readsSP   bool
	// flatCost pessimizes the benefit estimate (the cost-model ablation):
	// every candidate is costed as a full LR spill and every function as a
	// full frame, regardless of the strategy actually emitted.
	flatCost bool
}

// Outline runs repeated machine outlining over prog in place and returns
// per-round statistics. It is deterministic: identical inputs produce
// identical outputs, regardless of map iteration order.
func Outline(prog *mir.Program, opts Options) (*Stats, error) {
	return new(Outliner).Outline(prog, opts)
}

// Outliner outlines one program after another, the way a worker lane of a
// build does, keeping its round scratch from each program to the next: the
// capacities of the flattened string, the repeat finder, the prefix sums, the
// LR bits, the owner table and the candidate arenas carry over, and what
// belonged to the previous program (its interned instructions, candidate sets
// and frontier) is dropped first. Nothing in the rewritten program or the
// returned Stats points into the Outliner. The zero value is ready to use. An
// Outliner is not safe for concurrent use.
type Outliner struct{ sc scratch }

// Outline outlines prog as the package-level Outline does.
func (o *Outliner) Outline(prog *mir.Program, opts Options) (*Stats, error) {
	if err := CheckVerifyMode(opts.OnVerifyFailure); err != nil {
		return nil, fmt.Errorf("outline: %w", err)
	}
	opts = opts.withDefaults()
	tr := opts.Tracer
	stats := &Stats{}
	counter := 0
	sc := &o.sc
	sc.reset()
	// Snapshots for the degraded verify-failure modes, as clones: preAll is
	// the program before any outlining, preRound before the current round.
	// Only taken when a degraded mode could use them.
	degrade := opts.Verify && opts.OnVerifyFailure != VerifyAbort
	var preAll, preRound *mir.Program
	if degrade {
		preAll = prog.Clone()
	}
	for round := 1; round <= opts.Rounds; round++ {
		if degrade {
			preRound = prog.Clone()
		}
		// One stage span per round, all named "machine-outline": stage
		// totals sum them, so repeated rounds (and per-module runs in the
		// default pipeline) report total time, not last-round time.
		sp := tr.StartStage("machine-outline", opts.TraceLane).Arg("round", round)
		rs, rems, err := outlineOnce(prog, opts, &counter, round, sc)
		if err != nil {
			sp.End()
			return stats, fmt.Errorf("outline round %d: %w", round, err)
		}
		rs.Round = round
		stats.Rounds = append(stats.Rounds, rs)
		// The fault injector's OutlineRound corruption point fires only under
		// Verify, so the damage is detected by construction (dropping a new
		// function's terminator guarantees a fall-through violation) and
		// exercises exactly the verifier + rollback machinery below.
		if opts.Verify && len(sc.newFuncs) > 0 &&
			opts.Fault.Fires(fault.OutlineRound, fmt.Sprintf("%s/round:%d", opts.RemarkModule, round), fault.CorruptKind) {
			corruptNewFunc(sc.newFuncs[0])
		}
		if rep := verifyRound(prog, opts, round, sc.frontier); rep != nil {
			tr.Add("verify/functions", int64(rep.FuncsChecked))
			tr.Add("verify/violations", int64(len(rep.Violations)))
			if err := rep.Err(); err != nil {
				sp.End()
				if degrade {
					return rollback(prog, opts, stats, tr, round, err, preAll, preRound)
				}
				return stats, fmt.Errorf("outline round %d broke the program: %w", round, err)
			}
		}
		sp.End()
		tr.EmitBatch(opts.FuncPrefix, rems)
		// A round this build ran; what the rounds did is in the returned Stats.
		tr.Add("outline/rounds", 1)
		if rs.SequencesOutlined == 0 {
			// Fixed point: later rounds cannot find anything either.
			break
		}
	}
	return stats, nil
}

// verifyRound runs the machine verifier after a round, so that a bad rewrite
// is diagnosed at the instruction that broke, not at the eventual output
// divergence. Round one checks the whole program. From then on every function
// outside the round's frontier is one the previous check passed and nothing
// has written to since, so only the frontier is checked (verify.Funcs has the
// argument); a round that wrote to nothing has nothing to check. It returns
// nil when it checked nothing, which is also what it does with Verify off.
func verifyRound(prog *mir.Program, opts Options, round int, frontier []int) *verify.Report {
	switch {
	case !opts.Verify:
		return nil
	case round == 1:
		return verify.Program(prog, opts.ExternSyms)
	case len(frontier) > 0:
		return verify.Funcs(prog, opts.ExternSyms, frontier)
	}
	return nil
}

// rollback implements the degraded OnVerifyFailure modes: restore prog from
// the relevant snapshot, drop the undone rounds' stats, record a counter and
// a remark, and stop outlining successfully — the build ships a correct,
// less-outlined program instead of failing.
func rollback(prog *mir.Program, opts Options, stats *Stats, tr *obs.Tracer, round int, verr error, preAll, preRound *mir.Program) (*Stats, error) {
	snap := preRound
	if opts.OnVerifyFailure == VerifyDisableOutlining {
		snap = preAll
	}
	prog.ResetTo(snap)
	status := "rolled-back"
	if opts.OnVerifyFailure == VerifyDisableOutlining {
		stats.Rounds = stats.Rounds[:0]
		status = "outlining-disabled"
		tr.Add("outline/rounds_rolled_back", int64(round))
	} else {
		stats.Rounds = stats.Rounds[:len(stats.Rounds)-1]
		tr.Add("outline/rounds_rolled_back", 1)
	}
	tr.EmitBatch(opts.FuncPrefix, []obs.Remark{{
		Pass:   "machine-outliner",
		Status: status,
		Reason: verr.Error(),
		Round:  round,
		Module: opts.RemarkModule,
	}})
	return stats, nil
}

// corruptNewFunc is the OutlineRound fault payload: dropping the final
// instruction (the terminator) of a just-created outlined function makes
// control fall off the function end — damage the verifier detects
// unconditionally, so an armed corruption can never slip through to the
// image.
func corruptNewFunc(f *mir.Function) {
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		b := f.Blocks[i]
		if n := len(b.Insts); n > 0 {
			b.Insts = b.Insts[:n-1]
			return
		}
	}
}

// candRemark records one candidate-set decision. occ is the occurrence
// count at decision time (sets rejected before occurrence collection pass
// the raw repeat count).
func candRemark(set *candSet, occ, round int, opts Options, status, reason, fn string) obs.Remark {
	return obs.Remark{
		Pass:        "machine-outliner",
		Status:      status,
		Reason:      reason,
		Round:       round,
		Module:      opts.RemarkModule,
		Function:    fn,
		PatternLen:  int(set.length),
		Occurrences: occ,
		Benefit:     int(set.ben),
		Strategy:    set.strat.String(),
		ExecCount:   set.execCount,
		Hotness:     hotness(set.execCount, reason, opts),
	}
}

// rejectSPUnderSpill is the one reason a set is rejected for before its
// occurrences are collected: it calls, so its function must spill LR, and
// reads SP, which the spill would move.
const rejectSPUnderSpill = "sp-access-under-lr-spill"

// hotness is a remark's verdict on the hottest function hosting a set, with
// a profile: "hot" from the threshold up (1 when it is not positive), else
// "cold". There is none without a profile, nor for a set rejected before its
// occurrences (and so its hosts) were collected.
func hotness(execCount int64, reason string, opts Options) string {
	switch {
	case opts.Profile == nil || reason == rejectSPUnderSpill:
		return ""
	case execCount >= max(opts.ColdThreshold, 1):
		return "hot"
	}
	return "cold"
}

// repeatResult is one repeat's analysis outcome: a candidate set, or the
// reason it can never be outlined.
type repeatResult struct {
	set    *candSet
	reject string
}

// scratch holds outlineOnce's round-local state so round one's allocations
// serve every later round of the same Outline call: the flattened mapping
// (with its persistent instruction-intern table and its LR bits, rewritten
// from the program every round), the repeat finder's suffix and LCP arrays,
// per-lane candidate buffers and the block-splice buffer all carry over. Rounds
// shrink the program, so the first round's capacities are the high-water mark
// and later rounds allocate (almost) nothing. On an Outliner the same holds
// across programs: reset drops what belonged to the previous program and
// keeps the capacities, so a lane's high-water mark is its largest program's
// first round.
type scratch struct {
	m        mapping
	stb      suffixtree.Builder
	repeats  []suffixtree.Repeat
	fnCount  []int64 // by function: profile entry count, this round
	byRepeat []repeatResult
	sets     []*candSet
	owner    []int32 // by position: which call site replaces it (see site), 0 = free
	sites    []site
	newFuncs []*mir.Function
	// frontier lists, ascending, the functions the last round wrote to: the
	// ones it edited, then the ones it created.
	frontier []int
	lanes    []laneScratch
	blockBuf []isa.Inst
}

// reset readies the scratch for a new program. The intern table is per
// program: a symbol stands for an instruction of the previous program. The
// candidate sets, new functions and frontier of the previous program's last
// round go too, and the arenas are rewound. Every capacity is kept.
func (sc *scratch) reset() {
	clear(sc.m.idByInst)
	sc.m.insts = sc.m.insts[:0]
	sc.newFuncs = sc.newFuncs[:0]
	sc.sets = sc.sets[:0]
	sc.byRepeat = sc.byRepeat[:0]
	sc.frontier = sc.frontier[:0]
	for i := range sc.lanes {
		sc.lanes[i].reset()
	}
}

// laneScratch is one analysis worker's reusable storage: the sorted-starts
// buffer, the occurrence staging buffer, and chunked arenas for the candidate
// sets and occurrence lists that outlive buildSet. Chunks are recycled across
// rounds (reset rewinds the cursors), so steady-state candidate analysis
// allocates nothing. Chunked (rather than appended) storage keeps previously
// returned pointers stable while the arena grows.
type laneScratch struct {
	starts  []int
	candTmp []candidate

	setChunks  [][]candSet
	si, sj     int
	candChunks [][]candidate
	ci, cj     int
}

const (
	setChunkLen  = 256
	candChunkLen = 4096
)

func (ls *laneScratch) reset() { ls.si, ls.sj, ls.ci, ls.cj = 0, 0, 0, 0 }

// newSet returns a zeroed candSet from the arena.
func (ls *laneScratch) newSet() *candSet {
	if ls.si == len(ls.setChunks) {
		ls.setChunks = append(ls.setChunks, make([]candSet, setChunkLen))
	}
	s := &ls.setChunks[ls.si][ls.sj]
	*s = candSet{}
	if ls.sj++; ls.sj == setChunkLen {
		ls.si, ls.sj = ls.si+1, 0
	}
	return s
}

// saveCands copies the staged occurrence list into the arena. The returned
// slice has exact capacity, so the greedy loop's in-place pruning
// (cands[:0] + append) can never write past it into a neighbour.
func (ls *laneScratch) saveCands(tmp []candidate) []candidate {
	n := len(tmp)
	if n == 0 {
		return nil
	}
	if n > candChunkLen {
		return append([]candidate(nil), tmp...)
	}
	if ls.ci < len(ls.candChunks) && candChunkLen-ls.cj < n {
		ls.ci, ls.cj = ls.ci+1, 0
	}
	if ls.ci == len(ls.candChunks) {
		ls.candChunks = append(ls.candChunks, make([]candidate, candChunkLen))
	}
	dst := ls.candChunks[ls.ci][ls.cj : ls.cj+n : ls.cj+n]
	copy(dst, tmp)
	ls.cj += n
	return dst
}

func outlineOnce(prog *mir.Program, opts Options, counter *int, round int, sc *scratch) (RoundStats, []obs.Remark, error) {
	tr := opts.Tracer
	remarks := tr.RemarksEnabled()
	var rs RoundStats
	repeats, err := sc.findRepeats(prog, tr)
	if err != nil || len(sc.m.str) == 0 {
		return rs, nil, err
	}
	m := &sc.m
	sets, rems := analyzeRepeats(prog, repeats, opts, round, sc)

	if cap(sc.owner) < len(m.str) {
		sc.owner = make([]int32, cap(m.str))
	}
	owner := sc.owner[:len(m.str)]
	clear(owner)
	sites := sc.sites[:0]
	newFuncs := sc.newFuncs[:0]
	for _, set := range sets {
		n := set.length
		kept := set.cands[:0]
		for _, c := range set.cands {
			free := true
			for p := c.start; p < c.start+n; p++ {
				if owner[p] != 0 {
					free = false
					break
				}
			}
			if free {
				kept = append(kept, c)
			}
		}
		set.cands = kept
		set.ben = int32(set.benefit()) // occurrence pruning changed cands
		if len(set.cands) < 2 {
			if remarks {
				rems = append(rems, candRemark(set, len(set.cands), round,
					opts, "rejected", "occurrences-overlap", ""))
			}
			continue
		}
		if set.ben < minBenefit {
			if remarks {
				rems = append(rems, candRemark(set, len(set.cands), round,
					opts, "rejected", "unprofitable-after-overlap", ""))
			}
			continue
		}
		name := fmt.Sprintf("%s%d", opts.FuncPrefix, *counter)
		*counter++
		fn := set.makeFunction(name, m.instsAt(prog, int(set.at), int(n)))
		newFuncs = append(newFuncs, fn)
		sites = append(sites, site{length: int(n)})
		st := &sites[len(sites)-1]
		for _, c := range set.cands {
			v := int32(0)
			if c.lrLive {
				v = 1
			}
			if st.repl[v] == nil {
				st.repl[v] = set.callSite(name, c.lrLive)
			}
			id := int32(len(sites))<<1 | v
			for p := c.start; p < c.start+n; p++ {
				owner[p] = id
			}
			rs.SequencesOutlined++
		}
		rs.FunctionsCreated++
		rs.OutlinedBytes += fn.CodeSize()
		rs.BytesSaved += int(set.ben)
		if remarks {
			rems = append(rems, candRemark(set, len(set.cands), round,
				opts, "selected", "", name))
		}
	}
	tr.Add("outline/candidates/selected", int64(rs.FunctionsCreated))
	tr.Add("outline/candidates/rejected", int64(len(repeats)-rs.FunctionsCreated))

	frontier := applyEdits(prog, m.locs, owner, sites, &sc.blockBuf, sc.frontier[:0])
	for _, fn := range newFuncs {
		frontier = append(frontier, len(prog.Funcs))
		prog.AddFunc(fn)
	}
	sc.sites = sites
	sc.newFuncs = newFuncs
	sc.frontier = frontier
	return rs, rems, nil
}

// findRepeats flattens prog into sc.m and returns every repeat of at least
// minLength symbols that occurs at least twice, in sc.repeats. It fails only
// on a program too large to address, and finds nothing in an empty one.
func (sc *scratch) findRepeats(prog *mir.Program, tr *obs.Tracer) ([]suffixtree.Repeat, error) {
	m := &sc.m
	if err := m.remap(prog); err != nil || len(m.str) == 0 {
		return nil, err
	}
	tree := sc.stb.Build(m.str)
	tr.Add("outline/suffixtree/nodes", int64(tree.NodeCount()))

	if sc.repeats == nil {
		// Each reported repeat is a distinct lcp-interval, and NodeCount is
		// the root, one leaf per symbol and one node per interval: what is
		// left of it after the leaves bounds the repeat count. Sizing up
		// front avoids the append-regrow copies on the first (largest) round.
		sc.repeats = make([]suffixtree.Repeat, 0, tree.NodeCount()-len(m.str))
	}
	repeats := sc.repeats[:0]
	tree.ForEachRepeat(minLength, 2, func(r suffixtree.Repeat) {
		repeats = append(repeats, r)
	})
	sc.repeats = repeats
	return repeats, nil
}

// analyzeRepeats turns one round's repeats into candidate sets in greedy
// order, plus a remark for every repeat rejected on analysis, in (first
// occurrence, length) order. The mapping's prefix sums and LR bits are
// rebuilt from the program, then one candidate set is built per repeat,
// read-only over prog and sc.m, so workers never interact. Neither output
// depends on the order of repeats or of any Repeat.Starts, which is what
// leaves the finder free to report them in any order.
func analyzeRepeats(prog *mir.Program, repeats []suffixtree.Repeat, opts Options, round int, sc *scratch) ([]*candSet, []obs.Remark) {
	tr, m := opts.Tracer, &sc.m
	tr.Add("outline/candidates/found", int64(len(repeats)))

	// One profile lookup per function per round, shared by remark annotation
	// and cold-only gating. Per round because earlier rounds' outlined
	// functions appear in prog.Funcs but not in the profile: they count as
	// cold and stay outlinable.
	sc.fnCount = profileCounts(sc.fnCount[:0], prog, opts.Profile)
	gate := opts.Profile != nil && opts.ColdThreshold > 0

	m.buildSums(spSensitiveFuncs(prog))
	m.buildLR(prog)
	if cap(sc.byRepeat) < len(repeats) {
		sc.byRepeat = make([]repeatResult, len(repeats))
	}
	byRepeat := sc.byRepeat[:len(repeats)]
	if lanes := par.Workers(opts.Parallelism, len(repeats)); cap(sc.lanes) < lanes {
		sc.lanes = make([]laneScratch, lanes)
	} else {
		sc.lanes = sc.lanes[:lanes]
		for i := range sc.lanes {
			sc.lanes[i].reset()
		}
	}
	for _, err := range par.Run(nil, "", opts.Parallelism, len(repeats), false, func(lane, i int) error {
		set, reject := buildSet(prog, m, repeats[i], sc.fnCount, gate, opts, &sc.lanes[lane])
		byRepeat[i] = repeatResult{set, reject}
		return nil
	}) {
		if err != nil {
			panic(err) // a recovered worker panic, re-raised for the build's recovery boundary
		}
	}
	sets := sc.sets[:0]
	gated := int64(0)
	var rejected []rejection
	for i, rr := range byRepeat {
		gated += int64(rr.set.gated)
		if rr.reject != "" {
			if tr.RemarksEnabled() { // untraced builds sort nothing
				r := repeats[i]
				rejected = append(rejected, rejection{int32(slices.Min(r.Starts)), int32(r.Length), int32(i)})
			}
			continue
		}
		sets = append(sets, rr.set)
	}
	sc.sets = sets
	if gated > 0 {
		tr.Add("outline/profile/gated_occurrences", gated)
	}
	// (first occurrence, length) is unique per repeat and greedyOrder is
	// total, so neither order below depends on the order of repeats or of
	// their Starts.
	slices.SortFunc(rejected, func(a, b rejection) int {
		return cmp.Or(cmp.Compare(a.first, b.first), cmp.Compare(a.length, b.length))
	})
	var rems []obs.Remark
	if tr.RemarksEnabled() {
		// Room for this round's every remark: one per rejected repeat, and
		// at most one per candidate set in selection. The tracer keeps the
		// slice.
		rems = make([]obs.Remark, 0, len(rejected)+len(sets))
	}
	for _, r := range rejected {
		rr := byRepeat[r.repeat]
		occ := len(rr.set.cands)
		if occ == 0 {
			occ = len(repeats[r.repeat].Starts)
		}
		rems = append(rems, candRemark(rr.set, occ, round, opts, "rejected", rr.reject, ""))
	}
	slices.SortFunc(sets, greedyOrder)
	return sets, rems
}

// rejection is a repeat rejected on analysis, with its remark's sort key.
type rejection struct {
	first, length, repeat int32
}

// greedyOrder sorts candidate sets for greedy selection: benefit descending,
// then sequence length descending, then first occurrence ascending. The order
// is total — two sets of one length starting at one position would be the
// same substring, hence the same repeat — so no stable sort is needed to make
// the result unique.
func greedyOrder(a, b *candSet) int {
	if a.ben != b.ben {
		return cmp.Compare(b.ben, a.ben)
	}
	if a.length != b.length {
		return cmp.Compare(b.length, a.length)
	}
	return cmp.Compare(a.cands[0].start, b.cands[0].start)
}

// profileCounts appends to buf the profile entry count of every function of
// prog, or returns nil when there is no profile.
func profileCounts(buf []int64, prog *mir.Program, prof *profile.Profile) []int64 {
	if prof == nil {
		return nil
	}
	for _, f := range prog.Funcs {
		buf = append(buf, prof.Count(f.Name))
	}
	return buf
}

// buildSet classifies one repeated substring into a costed candidate set.
// A non-empty reject reason means the set can never be profitably outlined;
// the partially-built set is still returned so the decision can be reported
// as a remark. The sequence's size, whether it depends on SP pointing at the
// original frame, and whether it calls come from m.sums (see buildSums), and
// whether LR is live after an occurrence from m.lr (see buildLR).
// fnCount holds every function's profile entry count (nil without a profile)
// and gate turns cold-only gating on. ls is the calling worker's reusable
// storage: the returned set and its occurrence list live in ls's arenas
// (valid until its next reset), and the sorted occurrence list is staged in
// ls.starts — r.Starts is unordered and aliases suffix-array storage shared
// between nested repeats, so it must not be sorted in place. The set names
// its sequence by the smallest start, so it does not depend on the order of
// r.Starts either.
func buildSet(prog *mir.Program, m *mapping, r suffixtree.Repeat, fnCount []int64, gate bool, opts Options, ls *laneScratch) (*candSet, string) {
	starts := append(ls.starts[:0], r.Starts...)
	slices.Sort(starts)
	ls.starts = starts
	set := ls.newSet()
	set.at, set.length = int32(starts[0]), int32(r.Length)
	all := m.between(starts[0], starts[0]+r.Length)
	set.seqBytes = all.bytes
	set.readsSP = all.sp > 0
	// A trailing BL can become the thunk's tail call; every other call
	// (a trailing BLR too) is made from inside the sequence.
	last := m.instsAt(prog, starts[0], r.Length)[r.Length-1]
	set.hasCall = all.call > 1 || (all.call == 1 && last.Op != isa.BL)
	switch {
	case last.Op == isa.RET:
		set.strat = stratTailCall
		set.frameBytes = 0
	case last.Op == isa.BL && !set.hasCall:
		set.strat = stratThunk
		set.frameBytes = 0
	default:
		set.strat = stratPlain
		if set.hasCall {
			// The outlined function must preserve LR around its own calls:
			// STRXpre $x30 / LDRXpost $x30 / RET.
			set.frameBytes = 12
			if set.readsSP {
				// The LR spill moves SP under SP-relative accesses.
				return set, rejectSPUnderSpill
			}
		} else {
			set.frameBytes = 4 // appended RET
		}
	}
	if opts.FlatCostModel {
		// Ablation: the emitted code keeps its (semantically required)
		// strategy, but profitability is judged as if every call site paid
		// a full LR spill and every outlined function a full frame.
		set.flatCost = true
	}

	// De-overlap occurrences (e.g. "AAAA" matching "AA" at 0,1,2).
	tmp := ls.candTmp[:0]
	lastEnd := -1
	for _, st := range starts {
		if st < lastEnd {
			continue
		}
		c, where := candidate{start: int32(st)}, m.locs[st]
		if fnCount != nil {
			// Annotate before gating: the remark reports the hottest host
			// even when gating then drops that occurrence.
			set.execCount = max(set.execCount, fnCount[where.fn])
		}
		if gate && fnCount[where.fn] >= opts.ColdThreshold {
			// Cold-only gating: never extract from a hot function — the
			// extra dynamic call would tax exactly the paths the profile
			// says dominate execution.
			set.gated++
			continue
		}
		if set.strat == stratPlain {
			c.lrLive = m.lr[st+r.Length-1] || opts.FlatCostModel
			if c.lrLive && set.readsSP {
				// Saving LR at the call site moves SP under the candidate's
				// SP-relative accesses; skip this occurrence.
				continue
			}
		}
		tmp = append(tmp, c)
		lastEnd = st + r.Length
	}
	ls.candTmp = tmp
	set.cands = ls.saveCands(tmp)
	set.ben = int32(set.benefit())
	if len(set.cands) < 2 {
		if set.gated > 0 {
			return set, "hot-function"
		}
		return set, "too-few-occurrences"
	}
	if set.ben < minBenefit {
		return set, "unprofitable"
	}
	return set, ""
}

// callOverhead returns the bytes of the instructions replacing one candidate.
func (s *candSet) callOverhead(c candidate) int {
	switch s.strat {
	case stratTailCall, stratThunk:
		return 4
	default:
		if c.lrLive {
			return 12 // STRXpre $x30 + BL + LDRXpost $x30
		}
		return 4
	}
}

// benefit is the net byte saving of outlining every candidate in the set:
// the removed sequences minus the call sites minus the new function. Under
// the flat-cost ablation the estimate assumes worst-case overhead
// everywhere, mimicking an outliner without strategy-specific costing.
func (s *candSet) benefit() int {
	saved, seqBytes := 0, int(s.seqBytes)
	for _, c := range s.cands {
		overhead := s.callOverhead(c)
		if s.flatCost {
			overhead = 12
		}
		saved += seqBytes - overhead
	}
	frame := int(s.frameBytes)
	if s.flatCost {
		frame = 12
	}
	return saved - (seqBytes + frame)
}

// callSite builds the instructions that replace one candidate, after which
// LR is live or not.
func (s *candSet) callSite(name string, lrLive bool) []isa.Inst {
	switch s.strat {
	case stratTailCall:
		return []isa.Inst{{Op: isa.B, Sym: name}}
	case stratThunk:
		return []isa.Inst{{Op: isa.BL, Sym: name}}
	default:
		if lrLive {
			return []isa.Inst{
				{Op: isa.STRpre, Rd: isa.LR, Rn: isa.SP, Imm: -16},
				{Op: isa.BL, Sym: name},
				{Op: isa.LDRpost, Rd: isa.LR, Rn: isa.SP, Imm: 16},
			}
		}
		return []isa.Inst{{Op: isa.BL, Sym: name}}
	}
}

// makeFunction builds the outlined function body from the set's sequence.
func (s *candSet) makeFunction(name string, seq []isa.Inst) *mir.Function {
	var body []isa.Inst
	switch s.strat {
	case stratTailCall:
		body = append(body, seq...) // already ends in RET
	case stratThunk:
		body = append(body, seq[:len(seq)-1]...)
		body = append(body, isa.Inst{Op: isa.B, Sym: seq[len(seq)-1].Sym})
	default:
		if s.hasCall {
			body = append(body, isa.Inst{Op: isa.STRpre, Rd: isa.LR, Rn: isa.SP, Imm: -16})
			body = append(body, seq...)
			body = append(body, isa.Inst{Op: isa.LDRpost, Rd: isa.LR, Rn: isa.SP, Imm: 16})
		} else {
			body = append(body, seq...)
		}
		body = append(body, isa.Inst{Op: isa.RET})
	}
	return &mir.Function{
		Name:     name,
		Outlined: true,
		Blocks:   []*mir.Block{{Label: "entry", Insts: body}},
	}
}

// site is how one selected set's occurrences are rewritten: length
// instructions give way to repl[0] where LR is dead after the occurrence and
// to repl[1] where it is live (built when the first such occurrence is met;
// every occurrence shares them, applyEdits only copies). The greedy loop
// claims an occurrence by writing (1 + the site's index)<<1 | the variant
// into scratch.owner at each of its positions.
type site struct {
	length int
	repl   [2][]isa.Inst
}

// applyEdits splices all replacements and appends the index of every
// function it wrote to, ascending, to touched. Positions of the flattened
// string run in program order, so walking owner meets the claimed occurrences
// sorted by function, block and instruction without sorting anything, and
// locs says where each one sits. Occurrences never overlap, so each touched
// block is rebuilt exactly once: its replacements interleave with the
// untouched runs between them into buf, which is then copied back over the
// block.
func applyEdits(prog *mir.Program, locs []loc, owner []int32, sites []site, buf *[]isa.Inst, touched []int) []int {
	var blk *mir.Block // the block being rebuilt, nil before the first edit
	var at loc         // its address
	out, pos := (*buf)[:0], 0
	finish := func() {
		if blk != nil {
			out = append(out, blk.Insts[pos:]...)
			blk.Insts = append(blk.Insts[:0], out...)
		}
	}
	for p := 0; p < len(owner); p++ {
		id := owner[p]
		if id == 0 {
			continue
		}
		st, where := &sites[id>>1-1], locs[p]
		if blk == nil || where.fn != at.fn || where.block != at.block {
			finish()
			at = where
			blk = prog.Funcs[at.fn].Blocks[at.block]
			out, pos = out[:0], 0
			if n := len(touched); n == 0 || touched[n-1] != int(at.fn) {
				touched = append(touched, int(at.fn))
			}
		}
		out = append(out, blk.Insts[pos:where.inst]...)
		out = append(out, st.repl[id&1]...)
		pos = int(where.inst) + st.length
		p += st.length - 1
	}
	finish()
	*buf = out
	return touched
}
