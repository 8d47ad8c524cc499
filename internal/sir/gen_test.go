package sir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// windowSrc nests a closure (with its own blocks) between blocks of its
// parent, uses a function as a value (a thunk), passes a closure literal to
// a combinator with several blocks and direct calls (a closure
// specialization, so a cloneSIRFunc copy of both), and has a
// throwing initializer, a do/catch and dead code after a return.
const windowSrc = `
class Box { var s: String
  var n: Int
  init(k: Int) throws {
    self.s = try name(k: k)
    self.n = k
  }
}
func name(k: Int) throws -> String {
  if k < 0 { throw 3 }
  return "box"
}
func twice(x: Int) -> Int { return x * 2 }
func run(f: (Int) -> Int) -> Int {
  var s = twice(x: f(3))
  if s > 4 { s = s + twice(x: 5) }
  return s + f(4)
}
func main() {
  var total = 0
  for i in 0 ..< 4 {
    if i == 2 { continue }
    total = total + i
  }
  print(run(f: { (x: Int) -> Int in
    var acc = x
    while acc < 10 { acc = acc + total }
    return acc
  }))
  print(run(f: twice))
  do {
    let b = try Box(k: total)
    print(b.s)
  } catch {
    print(error)
  }
  while total < 100 {
    break
    print(total)
  }
}
`

// render prints every instruction of f but the one at (skipBlock, skipInst),
// and every block but skipBlock when skipInst is -1.
func render(f *Func, skipBlock, skipInst int) string {
	var b strings.Builder
	for bi, blk := range f.Blocks {
		if bi == skipBlock && skipInst < 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", blk.Label)
		for ii, in := range blk.Insts {
			if bi != skipBlock || ii != skipInst {
				fmt.Fprintf(&b, "  %s\n", in)
			}
		}
	}
	return b.String()
}

// TestBlocksAreCappedWindows: a generated (or cloned) function's blocks share
// one instruction slab and a clone's argument lists share one chunk, so each
// window must be capped at its own length. Appending to any block's Insts, or
// to any instruction's Args, must leave every other block and instruction as
// it was; so must the SIL outliner's edit, which appends to a prefix of a
// block.
func TestBlocksAreCappedWindows(t *testing.T) {
	m := gen(t, windowSrc)
	if SpecializeClosures(m).Specializations == 0 {
		t.Fatal("the source has no closure specialization to clone")
	}
	for _, f := range m.Funcs {
		for bi, blk := range f.Blocks {
			others := render(f, bi, -1)
			orig := slices.Clone(blk.Insts)

			blk.Insts = append(blk.Insts, Inst{Op: Unreachable})
			if got := render(f, bi, -1); got != others {
				t.Errorf("%s: appending to block %s changed another block:\n%s\nwant:\n%s", f.Name, blk.Label, got, others)
			}
			blk.Insts = blk.Insts[:len(orig)]
			if len(orig) >= 2 {
				blk.Insts = append(blk.Insts[:1], Inst{Op: Unreachable})
				if got := render(f, bi, -1); got != others {
					t.Errorf("%s: a prefix edit of block %s changed another block", f.Name, blk.Label)
				}
				blk.Insts = blk.Insts[:len(orig)]
				copy(blk.Insts, orig)
			}

			for ii := range blk.Insts {
				in := &blk.Insts[ii]
				if len(in.Args) == 0 {
					continue
				}
				rest := render(f, bi, ii)
				args := in.Args
				in.Args = append(in.Args, 1<<20)
				if got := render(f, bi, ii); got != rest {
					t.Errorf("%s: appending to the arguments of %s changed another instruction", f.Name, orig[ii])
				}
				in.Args = args
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("the edits were not undone: %v", err)
	}
}
