package llir

import "fmt"

// Verify checks SSA structural invariants:
//
//   - blocks are non-empty, end in exactly one terminator, labels unique,
//   - branch targets resolve,
//   - phis appear only at block starts and cover exactly the predecessors,
//   - every value is defined exactly once.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return err
		}
	}
	return nil
}

// Verify checks one function. Labels resolve to block indices once; the
// definition counts and predecessor lists are slices indexed by value
// number and block.
func (f *Func) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("llir: @%s: no blocks", f.Name)
	}
	nb := len(f.Blocks)
	idx := make(map[string]int32, nb)
	for i, b := range f.Blocks {
		if _, dup := idx[b.Label]; dup {
			return fmt.Errorf("llir: @%s: duplicate label %s", f.Name, b.Label)
		}
		idx[b.Label] = int32(i)
	}
	// Predecessors grouped by block: preds[predOff[b]:predOff[b+1]]. Branches
	// to unknown labels are reported below, at the branch.
	predOff := make([]int32, nb+1)
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if t, ok := idx[s]; ok {
				predOff[t+1]++
			}
		}
	}
	for b := 0; b < nb; b++ {
		predOff[b+1] += predOff[b]
	}
	preds := make([]int32, predOff[nb])
	fill := append([]int32(nil), predOff[:nb]...)
	for bi, b := range f.Blocks {
		for _, s := range b.Succs() {
			if t, ok := idx[s]; ok {
				preds[fill[t]] = int32(bi)
				fill[t]++
			}
		}
	}
	// isPred[p] == b+1 marks p as a predecessor of the block b being checked.
	isPred := make([]int32, nb)

	defs := make([]int32, f.NumValues+1)
	define := func(b *Block, v Value) error {
		if uint(v) >= uint(len(defs)) {
			return fmt.Errorf("llir: @%s/%s: value %%%d outside the function's %d values",
				f.Name, b.Label, v, f.NumValues)
		}
		defs[v]++
		return nil
	}
	for i := 0; i < f.NumParams; i++ {
		if err := define(f.Blocks[0], f.Param(i)); err != nil {
			return err
		}
	}
	for bi, b := range f.Blocks {
		if len(b.Insts) == 0 {
			return fmt.Errorf("llir: @%s: empty block %s", f.Name, b.Label)
		}
		nPreds := 0 // distinct predecessors
		for _, p := range preds[predOff[bi]:predOff[bi+1]] {
			if isPred[p] != int32(bi)+1 {
				isPred[p] = int32(bi) + 1
				nPreds++
			}
		}
		inPhis := true
		for i := range b.Insts {
			in := &b.Insts[i]
			isLast := i == len(b.Insts)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("llir: @%s/%s: bad terminator placement at %d (%s)",
					f.Name, b.Label, i, in)
			}
			if in.Op == Phi {
				if !inPhis {
					return fmt.Errorf("llir: @%s/%s: phi after non-phi", f.Name, b.Label)
				}
				if len(in.Incomings()) != nPreds {
					return fmt.Errorf("llir: @%s/%s: phi has %d incomings, %d preds",
						f.Name, b.Label, len(in.Incomings()), nPreds)
				}
				for _, inc := range in.Incomings() {
					if p, ok := idx[inc.Pred]; !ok || isPred[p] != int32(bi)+1 {
						return fmt.Errorf("llir: @%s/%s: phi incoming from non-pred %s",
							f.Name, b.Label, inc.Pred)
					}
				}
			} else {
				inPhis = false
			}
			if in.Dst != None {
				if err := define(b, in.Dst); err != nil {
					return err
				}
			}
			if in.Op == Call && in.ErrDst() != None {
				if err := define(b, in.ErrDst()); err != nil {
					return err
				}
			}
			switch in.Op {
			case Br:
				if _, ok := idx[in.Sym]; !ok {
					return fmt.Errorf("llir: @%s/%s: br to unknown %s", f.Name, b.Label, in.Sym)
				}
			case CondBr:
				_, ok1 := idx[in.Sym]
				_, ok2 := idx[in.Else()]
				if !ok1 || !ok2 {
					return fmt.Errorf("llir: @%s/%s: condbr to unknown label", f.Name, b.Label)
				}
			}
		}
	}
	for v, n := range defs {
		if n > 1 {
			return fmt.Errorf("llir: @%s: value %%%d defined %d times", f.Name, v, n)
		}
	}
	return nil
}
