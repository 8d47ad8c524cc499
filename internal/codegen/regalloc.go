package codegen

import (
	"math/bits"
	"slices"

	"outliner/internal/isa"
)

// allocation is the result of register allocation. regOf and spillSlot are
// indexed by virtual register: a vreg holds a register, a spill slot, or (if
// it never appeared as an operand) neither.
type allocation struct {
	regOf     []isa.Reg // isa.NoReg when not in a register
	spillSlot []int32   // -1 when not spilled
	numSpills int
	usedCS    []isa.Reg // callee-saved registers the function writes, ascending
	hasCalls  bool
}

// allocRoles holds, per Op value, the slots of the registers an instruction
// defines and reads, in the order its row of the opcode table prints them,
// derived at start-up: the allocator asks for them several times per
// instruction. A Frame row has none: instruction selection never emits one,
// and frame lowering places them around the allocated code.
var allocRoles = func() (t [256]struct{ defs, uses []isa.Slot }) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if info := op.Info(); !info.Frame {
			for _, o := range info.Operands {
				if o.Role&isa.Def != 0 {
					t[op].defs = append(t[op].defs, o.Slot)
				}
				if o.Role&isa.Use != 0 {
					t[op].uses = append(t[op].uses, o.Slot)
				}
			}
		}
	}
	return t
}()

// def returns the register in writes (vnone when it writes none).
func (in *vinst) def() vreg {
	if d := allocRoles[in.op].defs; len(d) > 0 {
		return in.reg(d[0])
	}
	return vnone
}

// uses returns the registers in reads: the first n entries of u.
func (in *vinst) uses() (u [3]vreg, n int) {
	for _, s := range allocRoles[in.op].uses {
		u[n] = in.reg(s)
		n++
	}
	return u, n
}

// reg returns the register operand in slot s, a register slot.
func (in *vinst) reg(s isa.Slot) vreg {
	switch s {
	case isa.SlotRd:
		return in.rd
	case isa.SlotRd2:
		return in.rd2
	case isa.SlotRn:
		return in.rn
	}
	return in.rm
}

// interval is a virtual register's live interval over linearized instruction
// positions. Intervals are indexed by the vreg's dense id.
type interval struct {
	start, end int32 // start < 0: not touched yet
}

func (iv *interval) touch(p int32) {
	if iv.start < 0 {
		iv.start, iv.end = p, p
		return
	}
	if p < iv.start {
		iv.start = p
	}
	if p > iv.end {
		iv.end = p
	}
}

type activeEntry struct {
	end int32
	reg isa.Reg
}

// The allocatable register pools as bitmasks (bit r = register r). Taking
// the lowest set bit hands registers out in ascending order.
var tempPool, savedPool = func() (temps, saved uint64) {
	for r := isa.FirstTemp; r <= isa.LastTemp; r++ {
		temps |= 1 << r
	}
	for r := isa.FirstCalleeSaved; r <= isa.LastCalleeSaved; r++ {
		if r.IsAllocatable() {
			saved |= 1 << r
		}
	}
	return
}()

// allocateRegisters runs a Poletto-style linear scan over sc.vblocks and
// leaves the result in sc.alloc. Values live across calls go to callee-saved
// registers (producing the STP/LDP prologue patterns of the paper's Listings
// 7-8); short-lived values use caller-saved temporaries; overflow spills to
// the stack. maxVreg is the largest virtual register number in use.
//
// The virtual registers that actually appear as operands are renumbered
// densely, so block liveness is a fixed point over small bitsets and the
// intervals are a slice; a prefix count of call positions answers "does this
// interval span a call" in O(1).
func (sc *scratch) allocateRegisters(maxVreg int) {
	blocks, vinsts := sc.vblocks, sc.vinsts
	nb := len(blocks)
	alloc := &sc.alloc

	// The flat buffer holds the blocks back to back, so a linear position is
	// an index into it: block b covers positions b.start..b.end-1, and
	// callPrefix[p] counts the calls at positions below p.
	callPrefix := zeroed(sc.callPrefix, len(vinsts)+1)
	sc.callPrefix = callPrefix
	calls := int32(0)
	for p := range vinsts {
		callPrefix[p] = calls
		if vinsts[p].op.IsCall() {
			calls++
		}
	}
	callPrefix[len(vinsts)] = calls
	alloc.hasCalls = calls > 0

	// Dense renumbering, in order of first appearance.
	denseOf := zeroed(sc.denseOf, maxVreg+1)
	vregOf := sc.vregOf[:0]
	dense := func(v vreg) int32 {
		d := denseOf[v]
		if d == 0 {
			vregOf = append(vregOf, v)
			d = int32(len(vregOf))
			denseOf[v] = d
		}
		return d - 1
	}
	for i := range vinsts {
		in := &vinsts[i]
		us, n := in.uses()
		for _, u := range us[:n] {
			if u > 0 {
				dense(u)
			}
		}
		if d := in.def(); d > 0 {
			dense(d)
		}
	}
	sc.denseOf, sc.vregOf = denseOf, vregOf
	nv := len(vregOf)

	// Per-block use/def sets and the intervals' in-block extents.
	words := (nv + 63) / 64
	sc.bits = zeroed(sc.bits, 4*nb*words)
	row := func(set, bi int) []uint64 {
		at := (set*nb + bi) * words
		return sc.bits[at : at+words]
	}
	const useSet, defSet, liveIn, liveOut = 0, 1, 2, 3
	ivals := zeroed(sc.ivals, nv)
	sc.ivals = ivals
	for i := range ivals {
		ivals[i].start = -1
	}
	for bi, b := range blocks {
		use, def := row(useSet, bi), row(defSet, bi)
		for p := b.start; p < b.end; p++ {
			in := &vinsts[p]
			us, n := in.uses()
			for _, u := range us[:n] {
				if u > 0 {
					d := denseOf[u] - 1
					if def[d/64]&(1<<(d%64)) == 0 {
						use[d/64] |= 1 << (d % 64)
					}
					ivals[d].touch(p)
				}
			}
			if v := in.def(); v > 0 {
				d := denseOf[v] - 1
				def[d/64] |= 1 << (d % 64)
				ivals[d].touch(p)
			}
		}
	}

	// Successors, resolved to block indices once.
	succOff := zeroed(sc.succOff, nb+1)
	succs := sc.succs[:0]
	for bi, b := range blocks {
		succOff[bi] = int32(len(succs))
		succs = sc.appendSuccs(succs, vinsts[b.start:b.end])
	}
	succOff[nb] = int32(len(succs))
	sc.succOff, sc.succs = succOff, succs

	// Backward liveness to a fixed point: out = ∪ in(succ), in = use ∪ (out − def).
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			in, out := row(liveIn, bi), row(liveOut, bi)
			use, def := row(useSet, bi), row(defSet, bi)
			for _, s := range succs[succOff[bi]:succOff[bi+1]] {
				for w, bitsIn := range row(liveIn, int(s)) {
					out[w] |= bitsIn
				}
			}
			for w := range in {
				if v := use[w] | out[w]&^def[w]; v != in[w] {
					in[w] = v
					changed = true
				}
			}
		}
	}

	// Values live into or out of a block span it end to end.
	for bi, b := range blocks {
		touchAll(ivals, row(liveIn, bi), b.start)
		touchAll(ivals, row(liveOut, bi), b.end-1)
	}
	order := sc.order[:0]
	for d := range ivals {
		order = append(order, int32(d))
	}
	slices.SortFunc(order, func(a, b int32) int {
		if sa, sb := ivals[a].start, ivals[b].start; sa != sb {
			return int(sa - sb)
		}
		return int(vregOf[a] - vregOf[b])
	})
	sc.order = order

	regOf := zeroed(alloc.regOf, maxVreg+1)
	spillSlot := zeroed(alloc.spillSlot, maxVreg+1)
	alloc.regOf, alloc.spillSlot = regOf, spillSlot
	for i := range regOf {
		regOf[i], spillSlot[i] = isa.NoReg, -1
	}
	alloc.numSpills = 0

	free := tempPool | savedPool
	usedCS := uint64(0)
	active := sc.active[:0]
	takeFrom := func(pool uint64) (isa.Reg, bool) {
		avail := free & pool
		if avail == 0 {
			return 0, false
		}
		r := isa.Reg(bits.TrailingZeros64(avail))
		free &^= 1 << r
		return r, true
	}
	for _, d := range order {
		iv := &ivals[d]
		// Expire the intervals that ended before this one starts.
		kept := active[:0]
		for _, ae := range active {
			if ae.end < iv.start {
				free |= 1 << ae.reg
			} else {
				kept = append(kept, ae)
			}
		}
		active = kept

		var reg isa.Reg
		var ok bool
		// A call strictly inside (start, end) forces a callee-saved register.
		if callPrefix[iv.end] > callPrefix[iv.start+1] {
			reg, ok = takeFrom(savedPool)
		} else {
			if reg, ok = takeFrom(tempPool); !ok {
				reg, ok = takeFrom(savedPool)
			}
		}
		if !ok {
			// Spill the current interval.
			spillSlot[vregOf[d]] = int32(alloc.numSpills)
			alloc.numSpills++
			continue
		}
		if reg.IsCalleeSaved() {
			usedCS |= 1 << reg
		}
		regOf[vregOf[d]] = reg
		active = append(active, activeEntry{end: iv.end, reg: reg})
	}
	sc.active = active

	alloc.usedCS = alloc.usedCS[:0]
	for ; usedCS != 0; usedCS &= usedCS - 1 {
		alloc.usedCS = append(alloc.usedCS, isa.Reg(bits.TrailingZeros64(usedCS)))
	}
}

// touchAll extends the interval of every dense id in set to position p.
func touchAll(ivals []interval, set []uint64, p int32) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			ivals[w*64+bits.TrailingZeros64(word)].touch(p)
		}
	}
}

// appendSuccs appends the indices of the blocks a block's trailing branches
// can reach (RET/BRK and tail-calls reach none).
func (sc *scratch) appendSuccs(dst []int32, insts []vinst) []int32 {
	base := len(dst)
	for i := len(insts) - 1; i >= 0; i-- {
		in := &insts[i]
		switch in.op {
		case isa.B, isa.Bcc, isa.CBZ, isa.CBNZ:
			if t, ok := sc.labelIdx[in.sym]; ok {
				dst = append(dst, t)
			}
		case isa.RET, isa.BRK:
			if i == len(insts)-1 {
				return dst[:base]
			}
		default:
			return dst
		}
	}
	return dst
}
