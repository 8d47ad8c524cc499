// Package appgen fabricates multi-module SwiftLite applications that stand
// in for the paper's proprietary subjects (UberRider, UberDriver, UberEats),
// plus non-Swift corpora (a clang-like program and a kernel-like machine
// program) for the generality experiments (§VII-E).
//
// The generator does not try to imitate ride-sharing business logic; it
// reproduces the *code shapes* the paper identifies as machine-pattern
// factories, with realistic frequency knobs:
//
//   - model classes with reference-typed fields (retain/release traffic),
//   - JSON-style throwing initializers with long try sequences (the §IV-4
//     out-of-SSA copy blow-up),
//   - handler functions calling shared vendor utilities (calling-convention
//     move+BL repetition across modules),
//   - closures passed to vendor combinators (closure specialization clones),
//   - per-module string constants (data-layout experiments),
//   - a mix of Swift-flavoured and Objective-C-flavoured modules
//     (objc_retain/objc_release traffic, clang metadata flags).
//
// Generation is fully deterministic per (profile, scale, seed).
package appgen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Profile describes one application.
type Profile struct {
	Name string
	Seed int64

	// Module counts at scale 1.0.
	FeatureModules int
	ModelModules   int
	VendorModules  int

	// SwiftFraction of modules; the rest are Objective-C flavoured
	// (UberRider 0.83, UberDriver 0.77, UberEats 0.66).
	SwiftFraction float64

	// FuncsPerModule at scale 1.0 (each actual module varies ±40%).
	FuncsPerModule int

	// TryInitFields is the typical field count of JSON-style throwing
	// initializers (the paper's MyClass has 118; we scale down).
	TryInitFields int

	// Spans is the number of core-span entry points (Figure 13 has 9).
	Spans int
}

// PaperModules is the module count the paper reports for the flagship app
// (476 modules, ~2M LoC). ScaleForModules(UberRider, PaperModules) yields the
// scale knob that reproduces it.
const PaperModules = 476

// UberRider is the flagship profile (scaled from 476 modules / 2M LoC to
// something a laptop compiles in seconds).
var UberRider = Profile{
	Name: "UberRider", Seed: 20170301,
	FeatureModules: 22, ModelModules: 10, VendorModules: 8,
	SwiftFraction: 0.83, FuncsPerModule: 14, TryInitFields: 12, Spans: 9,
}

// UberDriver mirrors the second app (77% Swift).
var UberDriver = Profile{
	Name: "UberDriver", Seed: 20180601,
	FeatureModules: 24, ModelModules: 9, VendorModules: 8,
	SwiftFraction: 0.77, FuncsPerModule: 13, TryInitFields: 10, Spans: 9,
}

// UberEats mirrors the third app (66% Swift).
var UberEats = Profile{
	Name: "UberEats", Seed: 20190901,
	FeatureModules: 20, ModelModules: 10, VendorModules: 7,
	SwiftFraction: 0.66, FuncsPerModule: 13, TryInitFields: 11, Spans: 9,
}

// Module is one generated source module.
type Module struct {
	Name  string
	ObjC  bool // Objective-C flavoured (different runtime calls + metadata)
	Files map[string]string
}

// EditBody returns a copy of mods where the named module's source has a
// comment appended — the canonical "developer edited a function body" event
// for incremental-build tests and benchmarks. The module's source hash
// changes; its exported-interface digest does not, so every other module's
// llir cache entry must stay warm.
func EditBody(mods []Module, name, tag string) []Module {
	return editModule(mods, name, "\n// edit "+tag+"\n")
}

// EditInterface returns a copy of mods where the named module gains a new
// exported function — the canonical "developer changed a module's interface"
// event. The module's exported-interface digest changes, so every module that
// imports it (in SwiftLite's whole-app import model: every other module) must
// rebuild its llir stage.
func EditInterface(mods []Module, name, tag string) []Module {
	return editModule(mods, name,
		fmt.Sprintf("\nfunc ifaceProbe_%s(x: Int) -> Int { return x + %d }\n", tag, len(tag)+1))
}

func editModule(mods []Module, name, suffix string) []Module {
	out := append([]Module(nil), mods...)
	for i, m := range out {
		if m.Name != name {
			continue
		}
		files := make(map[string]string, len(m.Files))
		for fn, src := range m.Files {
			files[fn] = src
		}
		// Append to the module's primary file (every generated module has
		// exactly one, named after the module).
		fn := m.Name + ".sl"
		files[fn] += suffix
		out[i].Files = files
		return out
	}
	panic("appgen: EditBody/EditInterface: no module named " + name)
}

// Generate produces the app's modules at the given scale (1.0 = the base
// app; Figure 1's growth sweep raises it week over week). Above scale 1.0
// modules also grow internally — more utilities, types, and handler steps per
// module — so paper-sized module counts come with paper-sized line counts
// rather than 476 toy modules. At or below 1.0 the per-module shape is
// exactly the historical one, byte for byte.
func Generate(p Profile, scale float64) []Module {
	size := 1.0
	if scale > 1 {
		size = 0.5 + scale/2
	}
	g := &appGen{
		p:    p,
		rng:  rand.New(rand.NewSource(p.Seed)),
		size: size,
	}
	return g.generate(scale)
}

// CountModules returns len(Generate(p, scale)) without generating anything:
// the same arithmetic generate uses, kept in lockstep by TestCountModules.
func CountModules(p Profile, scale float64) int {
	return scaled(p.VendorModules, 0.5+scale/2) +
		scaled(p.ModelModules, scale) +
		scaled(p.FeatureModules, scale) +
		1 // the app module
}

// ScaleForModules returns the smallest scale at which Generate yields at
// least want modules. ScaleForModules(UberRider, PaperModules) is the
// paper-scale knob.
func ScaleForModules(p Profile, want int) float64 {
	lo, hi := 0.0, 1.0
	for CountModules(p, hi) < want {
		hi *= 2
	}
	for i := 0; i < 64; i++ {
		mid := lo + (hi-lo)/2
		if CountModules(p, mid) >= want {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

type appGen struct {
	p    Profile
	rng  *rand.Rand
	size float64 // per-module size multiplier; exactly 1.0 at scale <= 1

	vendorFuncs []vendorFunc // utilities callable from any module
	modelTypes  []modelType
}

type vendorFunc struct {
	name   string
	module string
	nArgs  int
}

type modelType struct {
	name      string
	module    string
	numFields int
	throwing  bool
}

func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

func (g *appGen) generate(scale float64) []Module {
	nVendor := scaled(g.p.VendorModules, 0.5+scale/2) // vendors grow slower
	nModel := scaled(g.p.ModelModules, scale)
	nFeature := scaled(g.p.FeatureModules, scale)

	var mods []Module

	// Vendor modules first (their functions are imported everywhere).
	for i := 0; i < nVendor; i++ {
		mods = append(mods, g.vendorModule(i))
	}
	for i := 0; i < nModel; i++ {
		mods = append(mods, g.modelModule(i))
	}
	for i := 0; i < nFeature; i++ {
		mods = append(mods, g.featureModule(i, scale))
	}
	mods = append(mods, g.appModule(nFeature))
	return mods
}

// funcsIn returns the per-module function budget with deterministic jitter.
func (g *appGen) funcsIn() int {
	base := g.p.FuncsPerModule
	return base*6/10 + g.rng.Intn(base*8/10+1)
}

func (g *appGen) objcFlavoured() bool {
	return g.rng.Float64() >= g.p.SwiftFraction
}

// ---- vendor modules: shared utilities ----

func (g *appGen) vendorModule(idx int) Module {
	name := fmt.Sprintf("Vendor%02d", idx)
	var b strings.Builder
	n := scaled(g.funcsIn(), g.size)
	for fi := 0; fi < n; fi++ {
		fname := fmt.Sprintf("vnd%02d_util%d", idx, fi)
		nArgs := 1 + g.rng.Intn(3)
		g.vendorFuncs = append(g.vendorFuncs, vendorFunc{name: fname, module: name, nArgs: nArgs})
		g.emitUtilFunc(&b, fname, nArgs)
	}
	// One higher-order combinator per vendor module (closure specialization
	// fodder, Listing 9's `evaluate`).
	comb := fmt.Sprintf("vnd%02d_evaluate", idx)
	fmt.Fprintf(&b, `
func %s(node: String, f: (Int) -> Int) -> Int {
  var acc = node.count + %d
  for i in 0 ..< %d {
    acc = acc + f(i) %% %d
  }
  return acc
}
`, comb, g.rng.Intn(500), 4+g.rng.Intn(5), 1000+g.rng.Intn(9000))
	return Module{Name: name, Files: map[string]string{name + ".sl": b.String()}}
}

func (g *appGen) emitUtilFunc(b *strings.Builder, name string, nArgs int) {
	params := make([]string, nArgs)
	for i := range params {
		params[i] = fmt.Sprintf("a%d: Int", i)
	}
	fmt.Fprintf(b, "\nfunc %s(%s) -> Int {\n", name, strings.Join(params, ", "))
	// A small deterministic arithmetic body.
	expr := "a0"
	for i := 1; i < nArgs; i++ {
		op := []string{"+", "-", "*"}[g.rng.Intn(3)]
		expr = fmt.Sprintf("(%s %s a%d)", expr, op, i)
	}
	k := 1 + g.rng.Intn(997)
	k2 := 2 + g.rng.Intn(89)
	switch g.rng.Intn(6) {
	case 0:
		fmt.Fprintf(b, "  return %s + %d\n", expr, k)
	case 1:
		fmt.Fprintf(b, "  var t = %s\n  if t < 0 { t = 0 - t }\n  return t %% %d + 1\n", expr, k)
	case 2:
		fmt.Fprintf(b, "  var t = 0\n  for i in 0 ..< %d { t = t + %s + i }\n  return t + %d\n", 2+g.rng.Intn(5), expr, k)
	case 3:
		fmt.Fprintf(b, "  var t = %s\n  while t > %d { t = t / %d - 1 }\n  return t + %d\n", expr, k, k2, g.rng.Intn(31))
	case 4:
		fmt.Fprintf(b, "  let t = %s\n  if t %% %d < %d { return t * %d }\n  return t - %d\n", expr, k2, k2/2+1, 2+g.rng.Intn(4), k)
	default:
		fmt.Fprintf(b, "  var t = %s\n  var s = %d\n  for i in 0 ..< 3 { s = s + t %% (i + %d) }\n  return s\n", expr, k, 2+g.rng.Intn(7))
	}
	b.WriteString("}\n")
}

// ---- model modules: classes with (throwing) initializers ----

func (g *appGen) modelModule(idx int) Module {
	name := fmt.Sprintf("Model%02d", idx)
	objc := g.objcFlavoured()
	var b strings.Builder

	// The module-level "JSON field source" used by throwing inits.
	fmt.Fprintf(&b, `
func mdl%02d_fetch(k: Int) throws -> String {
  if k < 0 { throw k * -1 }
  return "field-%02d"
}
`, idx, idx)

	nTypes := scaled(2+g.rng.Intn(3), g.size)
	for ti := 0; ti < nTypes; ti++ {
		tname := fmt.Sprintf("Mdl%02dT%d", idx, ti)
		throwing := ti == 0 // one JSON-style type per module
		nFields := 3 + g.rng.Intn(4)
		if throwing {
			nFields = g.p.TryInitFields*7/10 + g.rng.Intn(g.p.TryInitFields*6/10+1)
		}
		g.modelTypes = append(g.modelTypes, modelType{
			name: tname, module: name, numFields: nFields, throwing: throwing,
		})
		fmt.Fprintf(&b, "\nclass %s {\n", tname)
		for fi := 0; fi < nFields; fi++ {
			if throwing || fi%3 == 1 {
				fmt.Fprintf(&b, "  var f%d: String\n", fi)
			} else {
				fmt.Fprintf(&b, "  var f%d: Int\n", fi)
			}
		}
		if throwing {
			// The Figure 9 shape: a long run of try assignments.
			fmt.Fprintf(&b, "  init(base: Int) throws {\n")
			for fi := 0; fi < nFields; fi++ {
				fmt.Fprintf(&b, "    self.f%d = try mdl%02d_fetch(k: base + %d)\n", fi, idx, fi)
			}
			fmt.Fprintf(&b, "  }\n")
		}
		// An accessor method, salted per class so classes are not replicas.
		fmt.Fprintf(&b, "  func checksum() -> Int {\n    var acc = %d\n", g.rng.Intn(300))
		limit := 2 + g.rng.Intn(3)
		for fi := 0; fi < nFields && fi < limit; fi++ {
			if throwing || fi%3 == 1 {
				fmt.Fprintf(&b, "    acc = acc + self.f%d.count * %d\n", fi, 1+g.rng.Intn(5))
			} else {
				fmt.Fprintf(&b, "    acc = acc + self.f%d\n", fi)
			}
		}
		fmt.Fprintf(&b, "    return acc\n  }\n")
		fmt.Fprintf(&b, "}\n")
	}

	// A parse-all function exercising the throwing inits (cold path).
	fmt.Fprintf(&b, `
func mdl%02d_parseAll(base: Int) -> Int {
  var total = %d
  do {
    let t = try %s(base: base)
    total = total + t.checksum() %% %d
  } catch {
    total = total + error * %d
  }
  return total
}
`, idx, g.rng.Intn(50), fmt.Sprintf("Mdl%02dT0", idx), 10000+g.rng.Intn(80000), 1+g.rng.Intn(7))
	return Module{Name: name, ObjC: objc, Files: map[string]string{name + ".sl": b.String()}}
}

// ---- feature modules: handlers, vendor calls, closures ----

func (g *appGen) featureModule(idx int, scale float64) Module {
	name := fmt.Sprintf("Feature%02d", idx)
	objc := g.objcFlavoured()
	var b strings.Builder

	// Per-module data: a set of small string constants (feature flags, UI
	// copy, endpoints in a real app) that this module's handlers read. This
	// is the programmer-driven data affinity §VI-3 is about: "feature
	// developers typically put all the data needed by a feature in its
	// relevant module and place relevant data together". Grouped layout
	// packs them into a page or two; llvm-link's interleaving scatters them.
	fmt.Fprintf(&b, "\nfunc ftr%02d_manifestSum(salt: Int) -> Int {\n  var acc = salt\n", idx)
	nStrings := 18 + g.rng.Intn(10)
	for si := 0; si < nStrings; si++ {
		lit := g.manifestLiteral(idx*100 + si)
		fmt.Fprintf(&b, "  acc = acc + %q.count + %q[acc %% %d]\n", lit, lit, len(lit))
	}
	fmt.Fprintf(&b, "  return acc\n}\n")

	n := scaled(g.funcsIn(), 0.5+scale/2)
	if n < 3 {
		n = 3 // spans address handlers 0..2 of every feature module
	}
	for fi := 0; fi < n; fi++ {
		g.emitHandler(&b, idx, fi)
	}
	if idx%4 == 0 {
		// A Swifter-like scenario (the paper's Listing 9): a module-local
		// combinator with a long straight-line body, called with distinct
		// closures from several wrappers. Closure specialization clones the
		// combinator per wrapper, planting the app's longest repeating
		// machine pattern.
		g.emitSwifterScenario(&b, idx)
	}
	return Module{Name: name, ObjC: objc, Files: map[string]string{name + ".sl": b.String()}}
}

func (g *appGen) emitHandler(b *strings.Builder, modIdx, fnIdx int) {
	name := fmt.Sprintf("ftr%02d_handle%d", modIdx, fnIdx)
	fmt.Fprintf(b, "\nfunc %s(req: Int) -> Int {\n", name)
	// Every handler starts by consulting its module's data (config reads).
	fmt.Fprintf(b, "  var acc = req + ftr%02d_manifestSum(salt: req %% 7)\n", modIdx)
	if modIdx%4 == 0 && fnIdx == 0 {
		// The Swifter-like rendering path (see emitSwifterScenario).
		fmt.Fprintf(b, "  acc = acc + ftr%02d_renderAll(x: acc %% 11)\n", modIdx)
	}
	steps := scaled(2+g.rng.Intn(6), g.size)
	for s := 0; s < steps; s++ {
		switch g.rng.Intn(9) {
		case 0, 1: // vendor utility call (cross-module repetition)
			if len(g.vendorFuncs) > 0 {
				vf := g.vendorFuncs[g.rng.Intn(len(g.vendorFuncs))]
				args := make([]string, vf.nArgs)
				for i := range args {
					args[i] = fmt.Sprintf("a%d: acc + %d", i, g.rng.Intn(9))
				}
				fmt.Fprintf(b, "  acc = acc + %s(%s)\n", vf.name, strings.Join(args, ", "))
			}
		case 2: // model construction + use (retain/release traffic)
			if len(g.modelTypes) > 0 {
				mt := g.modelTypes[g.rng.Intn(len(g.modelTypes))]
				if !mt.throwing {
					args := make([]string, mt.numFields)
					for i := range args {
						if i%3 == 1 {
							args[i] = fmt.Sprintf("f%d: \"v%d\"", i, g.rng.Intn(20))
						} else {
							args[i] = fmt.Sprintf("f%d: acc + %d", i, i)
						}
					}
					fmt.Fprintf(b, "  let m%d = %s(%s)\n  acc = acc + m%d.checksum()\n",
						s, mt.name, strings.Join(args, ", "), s)
				} else {
					parse := strings.Replace(mt.name[:5], "Mdl", "mdl", 1)
					fmt.Fprintf(b, "  acc = acc + %s_parseAll(base: acc %% 7)\n", parse)
				}
			}
		case 3: // closure through a vendor combinator (specialization)
			vendorIdx := g.rng.Intn(maxInt(1, g.p.VendorModules/2))
			k := 1 + g.rng.Intn(5)
			fmt.Fprintf(b, "  acc = acc + vnd%02d_evaluate(node: \"n%d\", f: { (x: Int) -> Int in return x * %d + acc })\n",
				vendorIdx, g.rng.Intn(12), k)
		case 4: // small loop (array churn)
			fmt.Fprintf(b, "  var xs%d = [acc, acc + 1, acc + 2]\n", s)
			fmt.Fprintf(b, "  for i in 0 ..< xs%d.count { acc = acc + xs%d[i] %% 5 }\n", s, s)
		case 5: // module data scan (manifest string pages)
			fmt.Fprintf(b, "  acc = acc + ftr%02d_manifestSum(salt: acc %% 13)\n", modIdx)
		case 6: // a batch of retained model objects (release runs at scope end)
			if len(g.modelTypes) > 0 {
				mt := g.modelTypes[g.rng.Intn(len(g.modelTypes))]
				if !mt.throwing {
					for v := 0; v < 3; v++ {
						args := make([]string, mt.numFields)
						for i := range args {
							if i%3 == 1 {
								args[i] = fmt.Sprintf("f%d: \"b%d\"", i, g.rng.Intn(30))
							} else {
								args[i] = fmt.Sprintf("f%d: acc + %d", i, v+i)
							}
						}
						fmt.Fprintf(b, "  let o%d_%d = %s(%s)\n", s, v, mt.name, strings.Join(args, ", "))
					}
					fmt.Fprintf(b, "  acc = acc + o%d_0.checksum() + o%d_1.checksum() + o%d_2.checksum()\n", s, s, s)
				}
			}
		case 7: // small state machine
			fmt.Fprintf(b, "  var st%d = acc %% %d\n", s, 3+g.rng.Intn(4))
			fmt.Fprintf(b, "  while st%d > 0 { st%d = st%d - 1 acc = acc + st%d * %d }\n",
				s, s, s, s, 1+g.rng.Intn(9))
		default: // branching on state
			fmt.Fprintf(b, "  if acc %% %d == 0 { acc = acc + %d } else { acc = acc - %d }\n",
				2+g.rng.Intn(5), g.rng.Intn(503), g.rng.Intn(97))
		}
	}
	// A per-function fingerprint keeps handlers from being exact replicas
	// (real feature code always differs somewhere).
	fmt.Fprintf(b, "  return acc + %d\n}\n", modIdx*1000+fnIdx*7+g.rng.Intn(900000))
}

// manifestLiteral fabricates a unique short "feature data" string.
func (g *appGen) manifestLiteral(idx int) string {
	var b strings.Builder
	n := 8 + g.rng.Intn(16)
	for i := 0; i < n; i++ {
		b.WriteByte(byte('a' + (idx*7+i*13+g.rng.Intn(5))%26))
	}
	fmt.Fprintf(&b, "-%d", idx)
	return b.String()
}

// emitSwifterScenario plants the closure-specialization replication pattern.
func (g *appGen) emitSwifterScenario(b *strings.Builder, idx int) {
	bodyLen := 30 + g.rng.Intn(30)
	fmt.Fprintf(b, "\nfunc ftr%02d_render(node: String, f: (Int) -> Int) -> Int {\n  var acc = f(node.count)\n", idx)
	for i := 0; i < bodyLen; i++ {
		fmt.Fprintf(b, "  acc = acc + %d * (acc %% %d + 1)\n", i+1+g.rng.Intn(3), i+3)
	}
	fmt.Fprintf(b, "  return acc\n}\n")
	for w := 0; w < 3; w++ {
		fmt.Fprintf(b, `
func ftr%02d_widget%d(x: Int) -> Int {
  return ftr%02d_render(node: "w%d-%02d", f: { (v: Int) -> Int in return v * %d + x %% %d })
}
`, idx, w, idx, w, idx, w+2+g.rng.Intn(4), 7+g.rng.Intn(90))
	}
	// Reachable from handler 0 so spans execute it. Salted so modules'
	// renderAll functions are not alpha-equivalent replicas.
	fmt.Fprintf(b, "\nfunc ftr%02d_renderAll(x: Int) -> Int {\n  return ftr%02d_widget0(x: x) + ftr%02d_widget1(x: x + %d) + ftr%02d_widget2(x: x + %d)\n}\n",
		idx, idx, idx, 1+g.rng.Intn(40), idx, 2+g.rng.Intn(40))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---- the app module: spans + main ----

func (g *appGen) appModule(nFeature int) Module {
	var b strings.Builder
	// Spans are the paper's core use cases: each touches a distinct slice
	// of feature modules, mostly running code once (UI-style, no hotspots).
	for s := 0; s < g.p.Spans; s++ {
		fmt.Fprintf(&b, "\nfunc span%d() -> Int {\n  var acc = %d\n", s+1, s)
		// Each span sweeps a broad, mostly-cold slice of the app — UI flows
		// run lots of distinct code (§VII-B: "a large fraction of the code
		// is run only once in a typical usage scenario"; "our code footprint
		// is heavy"). The sweep repeats a few times (screens revisited),
		// so a footprint beyond the instruction cache stays under pressure.
		calls := 2*nFeature + g.rng.Intn(8)
		for c := 0; c < calls; c++ {
			mod := (s*4 + c) % nFeature
			fmt.Fprintf(&b, "  acc = acc + ftr%02d_handle%d(req: acc %% 97)\n", mod, (s+c)%3)
		}
		fmt.Fprintf(&b, "  return acc\n}\n")
	}
	b.WriteString("\nfunc main() {\n  var total = 0\n")
	for s := 0; s < g.p.Spans; s++ {
		fmt.Fprintf(&b, "  total = total + span%d()\n", s+1)
	}
	b.WriteString("  print(total)\n}\n")
	return Module{Name: "App", Files: map[string]string{"App.sl": b.String()}}
}
