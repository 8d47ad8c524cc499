package difftest

import (
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/frontend"
	"outliner/internal/raceflag"
)

// FuzzFrontend pushes arbitrary bytes through the lexer, parser, and
// semantic checker. Invalid programs must be rejected with an error — never
// a panic. Crashers found in CI land in testdata/fuzz/FuzzFrontend.
func FuzzFrontend(f *testing.F) {
	seeds := []string{
		"func main() {\n  print(1)\n}\n",
		"func add(a: Int, b: Int) -> Int {\n  return a + b\n}\nfunc main() {\n  print(add(a: 2, b: 3))\n}\n",
		"class Box {\n  var v: Int\n  init(v: Int) {\n    self.v = v\n  }\n}\nfunc main() {\n  let b = Box(v: 9)\n  print(b.v)\n}\n",
		"func main() {\n  var s = \"hi\"\n  print(s)\n}\n",
		"func f() throws -> Int {\n  throw 1\n}\n",
		"func main() {\n  var a = [1, 2]\n  a.append(3)\n  print(a.count)\n}\n",
		"}{", "func", "class C {", "func main() { if { } }", "\x00\xff",
		// Past the parser's nesting limit: a 400 k-term sum, whose left-deep
		// tree overflowed the checker's stack before the limit existed.
		"func main() {\n  print(1" + strings.Repeat("+1", 400_000) + ")\n}\n",
	}
	// 3 M nested parentheses, which overflowed the parser's own stack. They
	// lex into about 1 GB of tokens, which the race detector's shadow memory
	// would nearly triple.
	if !raceflag.Enabled {
		seeds = append(seeds, "func main() {\n  print("+strings.Repeat("(", 3_000_000)+"1"+strings.Repeat(")", 3_000_000)+")\n}\n")
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := frontend.ParseFile("fuzz.sl", src)
		if err != nil {
			return // rejected cleanly
		}
		_, _ = frontend.CheckModule("Fuzz", nil, file)
	})
}

// FuzzPipeline generates a deterministic app from the fuzzed seed, builds
// it at the baseline and at a config corner derived from the fuzzed bits,
// and requires the differential oracle to agree. This is the whole-stack
// semantic fuzzer: any divergence is a miscompile (or a verifier hole).
//
// faultSeed adds the fault-injection axis: the config corner is rebuilt
// under a deterministic chaos schedule (faultSeed 0 disables it). A faulted
// build may fail, but only with a structured diagnostic; when it succeeds,
// it must still agree with the clean reference.
func FuzzPipeline(f *testing.F) {
	f.Add(int64(7), uint64(0), uint64(0))
	f.Add(int64(1037), uint64(0b111), uint64(0))
	f.Add(int64(42), uint64(1<<5|1<<6|1), uint64(3))
	f.Add(int64(99), uint64(0x7ff), uint64(17))
	f.Add(int64(61), uint64(1<<12|0x3f), uint64(0))  // reserved layout bit
	f.Add(int64(73), uint64(2<<12|0x7ff), uint64(5)) // c3 layout corner

	f.Fuzz(func(t *testing.T, seed int64, bits, faultSeed uint64) {
		profile := appgen.UberRider
		profile.Seed = seed
		profile.Spans = 1
		mods := appgen.Generate(profile, 0.03)
		o := &Oracle{MaxSteps: 20_000_000}
		corner := PointFromBits(bits)
		pts := []Point{Lattice()[0], corner}
		div, err := o.Check(mods, pts)
		if err != nil {
			t.Fatalf("generated app failed its reference build: %v", err)
		}
		if div != nil {
			t.Fatalf("seed %d bits %#x: %v", seed, bits, div)
		}
		if faultSeed == 0 {
			return
		}
		ref := o.Run(mods, pts[0])
		if ref.BuildErr != nil {
			t.Fatalf("reference rebuild failed: %v", ref.BuildErr)
		}
		got := o.Run(mods, FaultPoint(corner, faultSeed, 0.03))
		if got.BuildErr != nil {
			if !StructuredBuildFailure(got.BuildErr) {
				t.Fatalf("seed %d bits %#x fault %d: unstructured failure: %v",
					seed, bits, faultSeed, got.BuildErr)
			}
			return
		}
		if cls, detail := Compare(ref, got); cls != ClassAgree {
			t.Fatalf("seed %d bits %#x fault %d: %s: %s", seed, bits, faultSeed, cls, detail)
		}
	})
}
