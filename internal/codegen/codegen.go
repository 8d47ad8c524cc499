// Package codegen lowers LLIR to machine code (internal/mir): the llc analog.
//
// The stages reproduce the parts of an AArch64 backend that the paper's
// analysis identifies as pattern factories:
//
//   - out-of-SSA translation (phi elimination with critical-edge splitting
//     and parallel-copy sequentialization) — the source of the copy/spill
//     blow-up of §IV-4 and Listing 11,
//   - instruction selection with calling-convention materialization — the
//     ORRXrs argument moves of Listings 1-6,
//   - linear-scan register allocation with callee-saved preferences and
//     spill code,
//   - prologue/epilogue insertion with STP/LDP pairs — Listings 7-8.
package codegen

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"outliner/internal/fault"
	"outliner/internal/isa"
	"outliner/internal/llir"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/par"
)

// CompileWith lowers every function of an LLIR module and returns a machine
// program (functions keep their source-module provenance; globals carry
// over), with at most parallelism workers (0 = one per CPU, 1 = serial).
// Functions lower independently (ISel → out-of-SSA → regalloc
// read only their own cloned function), and the results are appended in
// module order, so the machine program is identical for any worker count.
func CompileWith(m *llir.Module, parallelism int) (*mir.Program, error) {
	return new(Compiler).Compile(m, parallelism, nil, 0, nil)
}

// Compiler compiles one module after another, the way a worker lane of a
// build does, keeping its per-worker scratch tables from each module to the
// next: a module boundary is handled like a function boundary, since every
// stage re-zeroes the table range it uses. The programs it returns are its
// callers' alone: they are built from fresh memory and nothing in them
// points into the Compiler. The zero value is ready to use. A Compiler is
// not safe for concurrent use.
type Compiler struct {
	// lanes holds one scratch per worker: a worker compiles its functions
	// one after another, so each function's tables are the previous one's,
	// regrown only when a larger function comes along.
	lanes []scratch
}

// Compile compiles m as CompileWith does, with telemetry and fault injection:
// the functions-compiled counter, and (when the tracer collects fine spans)
// one span per function on trace lane baseLane+worker. The caller picks
// baseLane so spans land on the track of whichever pool is running: the
// whole-program pipeline passes 1 (its codegen workers are lanes 1..p), the
// default pipeline's per-module workers pass their own lane (their inner
// codegen is serial). inj (nil to disable) arms a per-function CodegenFunc
// panic point, keyed by function name; the worker pool recovers it into a
// structured *par.PanicError.
func (c *Compiler) Compile(m *llir.Module, parallelism int, tr *obs.Tracer, baseLane int, inj *fault.Injector) (*mir.Program, error) {
	if n := par.Workers(parallelism, len(m.Funcs)); len(c.lanes) < n {
		c.lanes = append(c.lanes, make([]scratch, n-len(c.lanes))...)
	}
	lanes := c.lanes
	fine := tr.FineEnabled()
	funcs := make([]*mir.Function, len(m.Funcs))
	errs := par.Run(nil, "llc", parallelism, len(m.Funcs), false, func(lane, i int) error {
		inj.MaybePanic(fault.CodegenFunc, m.Funcs[i].Name)
		var sp *obs.Span
		if fine { // the span name is built only when someone will read it
			sp = tr.StartFine("codegen @"+m.Funcs[i].Name, baseLane+lane)
		}
		mf, err := lanes[lane].compileFunc(m.Funcs[i])
		sp.End()
		if err != nil {
			return fmt.Errorf("codegen: @%s: %w", m.Funcs[i].Name, err)
		}
		funcs[i] = mf
		return nil
	})
	tr.Add("codegen/functions", int64(len(m.Funcs)))
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	prog := mir.NewProgram()
	for _, mf := range funcs {
		prog.AddFunc(mf)
	}
	for _, g := range m.Globals {
		words := append([]int64(nil), g.Words...)
		prog.AddGlobal(&mir.Global{Name: g.Name, Module: g.Module, Words: words})
	}
	return prog, nil
}

// scratch is one codegen lane's reusable per-function storage. Every table
// is a slice indexed by a dense integer — an LLIR value number, a virtual
// register, a block index, or a linear instruction position — and every
// buffer is rewound (and the tables re-zeroed for the new function's range)
// at the start of the stage that fills it, so nothing a function leaves
// behind is visible to the next one on the lane. The slices keep their
// backing arrays between functions, and on a Compiler between modules: a
// lane holds tables sized to the largest function it has compiled, not to
// the module. Nothing in a scratch outlives compileFunc's result: the
// machine function is built from fresh memory.
type scratch struct {
	// Working copy of the function being compiled (clone) and its
	// out-of-SSA form. Blocks' instruction lists are windows into insts.
	fn       llir.Func
	blocks   []llir.Block
	blockPtr []*llir.Block
	insts    []llir.Inst
	exts     []llir.Ext
	incs     []llir.Incoming
	labelIdx map[string]int32 // block label -> index in fn.Blocks
	predCnt  []int32          // by block: CFG edges entering it
	copies   []copyOp         // phi copies in discovery order
	edgeCopy []copyOp         // the same, grouped by predecessor block
	copyOff  []int32          // edgeCopy[copyOff[b]:copyOff[b+1]] run on block b's exit
	seq      []llir.Inst

	// Instruction selection, by LLIR value number.
	useOff  []int32 // useList[useOff[v]:useOff[v+1]] are v's users
	useList []useRef
	defOf   []*llir.Inst
	skipped []bool // Const defs fully folded; Cmp defs fused
	useBuf  []llir.Value
	vblocks []vblock
	vinsts  []vinst

	// Register allocation.
	alloc      allocation
	callPrefix []int32 // by position p: calls at positions < p
	denseOf    []int32 // by vreg: dense id + 1, 0 = not an operand
	vregOf     []vreg  // by dense id
	ivals      []interval
	order      []int32  // dense ids sorted by interval start
	bits       []uint64 // use/def/liveIn/liveOut bitsets, one row per block each
	succOff    []int32
	succs      []int32
	active     []activeEntry

	// Emission: the function's machine code, flat, before it is copied into
	// the result's exactly-sized slab.
	out      []isa.Inst
	outStart []int32
	outEnd   []int32
}

// zeroed returns s resized to n zero elements, reusing s's backing array
// when it is large enough (and growing it with headroom when it is not, so a
// run of ever larger functions regrows it a logarithmic number of times).
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	s = s[:n]
	clear(s)
	return s
}

func (sc *scratch) compileFunc(f *llir.Func) (*mir.Function, error) {
	// Work on a copy so out-of-SSA edits do not mutate the LLIR module
	// (pipelines compile the same module with several configs).
	work, err := sc.clone(f)
	if err != nil {
		return nil, err
	}
	sc.outOfSSA(work)
	if err := sc.selectInstructions(work); err != nil {
		return nil, err
	}
	sc.allocateRegisters(work.NumValues)
	return sc.emit(work), nil
}

// maxValues bounds a function's value numbers so they fit the int32 tables.
const maxValues = math.MaxInt32 / 2

// clone copies f into the scratch: the block list, every instruction (into
// one slab), and the Ext records of phis and conditional branches with each
// phi's incomings, which critical-edge splitting retargets. The copied
// instructions would otherwise share those records with f. Calls' records
// and argument lists are shared with f; codegen only reads them.
// Value numbers are checked against f.NumValues here, once, because every
// later table is indexed by them; LLIR can arrive from a decoded artifact.
func (sc *scratch) clone(f *llir.Func) (*llir.Func, error) {
	if f.NumValues < 0 || f.NumValues > maxValues {
		return nil, fmt.Errorf("function declares %d values", f.NumValues)
	}
	limit := uint(f.NumValues)
	inRange := func(v llir.Value) bool { return uint(v) <= limit }

	nb := len(f.Blocks)
	// Room for the forwarding blocks critical-edge splitting can add (two per
	// CondBr), so blockPtr's pointers into blocks stay valid.
	sc.blocks = slices.Grow(sc.blocks[:0], 3*nb)
	sc.blockPtr = slices.Grow(sc.blockPtr[:0], 3*nb)
	sc.insts = slices.Grow(sc.insts[:0], f.NumInsts())
	nExt := 0
	for _, b := range f.Blocks {
		for i := range b.Insts {
			if retargeted(&b.Insts[i]) {
				nExt++
			}
		}
	}
	// Sized once, so the pointers into it stay valid.
	sc.exts = slices.Grow(sc.exts[:0], nExt)
	sc.incs = sc.incs[:0]
	for _, b := range f.Blocks {
		start := len(sc.insts)
		sc.insts = append(sc.insts, b.Insts...)
		insts := sc.insts[start:len(sc.insts):len(sc.insts)]
		for i := range insts {
			in := &insts[i]
			ok := inRange(in.Dst) && inRange(in.A) && inRange(in.B) && inRange(in.ErrDst())
			for _, a := range in.Args() {
				ok = ok && inRange(a)
			}
			if retargeted(in) {
				sc.exts = append(sc.exts, *in.Ext)
				e := &sc.exts[len(sc.exts)-1]
				in.Ext = e
				if len(e.Incomings) > 0 {
					at := len(sc.incs)
					sc.incs = append(sc.incs, e.Incomings...)
					e.Incomings = sc.incs[at:len(sc.incs):len(sc.incs)]
				}
				for _, inc := range e.Incomings {
					ok = ok && inRange(inc.Val)
				}
			}
			if !ok {
				return nil, fmt.Errorf("block %s: %s names a value outside 1..%d", b.Label, in, f.NumValues)
			}
		}
		sc.blocks = append(sc.blocks, llir.Block{Label: b.Label, Insts: insts})
		sc.blockPtr = append(sc.blockPtr, &sc.blocks[len(sc.blocks)-1])
	}
	sc.fn = llir.Func{
		Name:      f.Name,
		Module:    f.Module,
		NumParams: f.NumParams,
		Throws:    f.Throws,
		NumValues: f.NumValues,
		Blocks:    sc.blockPtr,
	}
	return &sc.fn, nil
}

// retargeted reports whether in has an Ext record critical-edge splitting may
// change: a phi's incomings or a conditional branch's else label.
func retargeted(in *llir.Inst) bool {
	return in.Ext != nil && (in.Op == llir.Phi || in.Op == llir.CondBr)
}

// Copy is the post-SSA parallel-copy pseudo-instruction: Dst = A. It reuses
// llir.Inst storage with a dedicated opcode outside the SSA op set.
const opCopy llir.Op = llir.NumOps + 1

// copyOp is one phi-elimination copy, executed at the end of block pred.
type copyOp struct {
	pred     int32
	dst, src llir.Value
}

// outOfSSA eliminates phis: critical edges are split, then each phi becomes
// copies in the predecessors. Copies on one edge form a parallel copy and
// are sequentialized with a temporary when they form a cycle.
func (sc *scratch) outOfSSA(f *llir.Func) {
	// Labels resolve to block indices once; splitting registers the blocks
	// it adds, and isel and regalloc reuse the index.
	if sc.labelIdx == nil {
		sc.labelIdx = make(map[string]int32)
	}
	clear(sc.labelIdx)
	for i, b := range f.Blocks {
		sc.labelIdx[b.Label] = int32(i)
	}
	sc.splitCriticalEdges(f)

	// Gather the copies each phi asks of its predecessors, in phi order.
	copies := sc.copies[:0]
	for _, b := range f.Blocks {
		kept := b.Insts[:0]
		for _, in := range b.Insts {
			if in.Op != llir.Phi {
				kept = append(kept, in)
				continue
			}
			for _, inc := range in.Incomings() {
				if p, ok := sc.labelIdx[inc.Pred]; ok {
					copies = append(copies, copyOp{pred: p, dst: in.Dst, src: inc.Val})
				}
			}
		}
		b.Insts = kept
	}
	sc.copies = copies
	if len(copies) == 0 {
		return
	}
	// Group by predecessor block, keeping phi order within a group
	// (counting sort).
	nb := len(f.Blocks)
	off := zeroed(sc.copyOff, nb+1)
	sc.copyOff = off
	for _, c := range copies {
		off[c.pred+1]++
	}
	for b := 0; b < nb; b++ {
		off[b+1] += off[b]
	}
	edge := zeroed(sc.edgeCopy, len(copies))
	sc.edgeCopy = edge
	for _, c := range copies {
		edge[off[c.pred]] = c
		off[c.pred]++
	}
	// off[b] is now the end of b's group, i.e. the start of b+1's.
	for bi, b := range f.Blocks {
		lo := int32(0)
		if bi > 0 {
			lo = off[bi-1]
		}
		pending := edge[lo:off[bi]]
		if len(pending) == 0 {
			continue
		}
		// Sequentialize the parallel copy. Emit copies whose destination is
		// not a pending source; break cycles with a fresh temporary.
		seq := sc.seq[:0]
		for len(pending) > 0 {
			progress := false
			for i, c := range pending {
				dstIsSource := false
				for j, o := range pending {
					if j != i && o.src == c.dst {
						dstIsSource = true
						break
					}
				}
				if !dstIsSource {
					if c.dst != c.src {
						seq = append(seq, llir.Inst{Op: opCopy, Dst: c.dst, A: c.src})
					}
					pending = append(pending[:i], pending[i+1:]...)
					progress = true
					break
				}
			}
			if !progress {
				// Cycle: rotate through a temp.
				tmp := f.NewValue()
				c := pending[0]
				seq = append(seq, llir.Inst{Op: opCopy, Dst: tmp, A: c.src})
				// Redirect the source to the temp and retry.
				for j := range pending {
					if pending[j].src == c.src {
						pending[j].src = tmp
					}
				}
			}
		}
		sc.seq = seq
		if len(seq) == 0 {
			continue
		}
		// Insert before the terminator: the block moves to the slab's tail.
		body, term := b.Insts[:len(b.Insts)-1], b.Insts[len(b.Insts)-1]
		at := len(sc.insts)
		sc.insts = append(sc.insts, body...)
		sc.insts = append(sc.insts, seq...)
		sc.insts = append(sc.insts, term)
		b.Insts = sc.insts[at:len(sc.insts):len(sc.insts)]
	}
}

// splitCriticalEdges inserts a forwarding block on every edge whose source
// has multiple successors and whose target has multiple predecessors (and
// carries phis).
func (sc *scratch) splitCriticalEdges(f *llir.Func) {
	nb := len(f.Blocks)
	predCnt := zeroed(sc.predCnt, nb)
	sc.predCnt = predCnt
	startsWithPhi := func(b *llir.Block) bool { return len(b.Insts) > 0 && b.Insts[0].Op == llir.Phi }
	anyPhi := false
	for _, b := range f.Blocks {
		anyPhi = anyPhi || startsWithPhi(b)
		if t := b.Terminator(); t != nil {
			switch t.Op {
			case llir.Br:
				sc.countPred(t.Sym)
			case llir.CondBr:
				sc.countPred(t.Sym)
				sc.countPred(t.Else())
			}
		}
	}
	if !anyPhi {
		return
	}
	seq := 0
	for _, b := range f.Blocks[:nb] {
		t := b.Terminator()
		if t == nil || t.Op != llir.CondBr || t.Sym == t.Else() {
			continue
		}
		split := func(target string) string {
			ti, ok := sc.labelIdx[target]
			if !ok || int(ti) >= nb || !startsWithPhi(f.Blocks[ti]) || predCnt[ti] < 2 {
				return target
			}
			seq++
			label := b.Label + ".crit" + strconv.Itoa(seq)
			at := len(sc.insts)
			sc.insts = append(sc.insts, llir.Inst{Op: llir.Br, Sym: target})
			sc.blocks = append(sc.blocks, llir.Block{Label: label, Insts: sc.insts[at:len(sc.insts):len(sc.insts)]})
			sc.labelIdx[label] = int32(len(sc.blockPtr))
			sc.blockPtr = append(sc.blockPtr, &sc.blocks[len(sc.blocks)-1])
			// Retarget the phi incomings naming b to the new block.
			blk := f.Blocks[ti]
			for i := range blk.Insts {
				in := &blk.Insts[i]
				if in.Op != llir.Phi {
					break
				}
				for j, inc := range in.Incomings() {
					if inc.Pred == b.Label {
						in.Ext.Incomings[j].Pred = label
					}
				}
			}
			return label
		}
		t.Sym = split(t.Sym)
		if t.Ext != nil {
			t.Ext.Else = split(t.Ext.Else)
		}
	}
	f.Blocks = sc.blockPtr
}

func (sc *scratch) countPred(label string) {
	if i, ok := sc.labelIdx[label]; ok {
		sc.predCnt[i]++
	}
}
