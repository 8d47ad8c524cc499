// Package layout implements function reordering over the final machine
// program — the code-side twin of the paper's §VI-3 data-layout
// locality fix. Interleaving unrelated globals regressed data page faults;
// the same argument applies to code, so this pass places hot callers on the
// same page as their callees before the image is laid out.
//
// One policy knob selects the order, per "Optimizing Function Layout for
// Mobile Applications" (Hoag/Lee/Mestre/Pupyrev) and Codestitcher
// (Lavaee/Criswell/Ding), which treat function order as one policy choice:
//
//   - C3 — call-chain clustering: every function starts as its own cluster,
//     call edges are visited hottest first (execution-weighted frequency from
//     the profile's layout-independent callee@+offset edges), and the
//     callee's cluster is appended to the caller's whenever the callee still
//     heads its cluster and the merged cluster fits in one page (the
//     Codestitcher cluster cap). Clusters are then emitted hottest first.
//   - Outlined — each outlined function right after its heaviest static
//     caller (see outlinedOrder). It reads the program alone, no profile.
//   - None — today's order, byte-identical to a build without the pass.
//
// Every ordering is a true permutation of the program's functions (enforced
// by mir.ReorderFuncs) and fully deterministic: C3's edge ties break on
// caller then callee symbol name, cluster ties on the cluster's original
// position, so a fixed (program, profile, policy) triple yields one order at
// any parallelism and across process restarts. The pass moves addresses, never
// behavior — execution resolves calls by symbol, so a reordered image is
// execution-equivalent by construction (and difftest proves it).
package layout

import (
	"fmt"
	"sort"
	"strings"

	"outliner/internal/binimg"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/profile"
)

// Layout policy names (the -layout flag's vocabulary).
const (
	None     = "none"
	C3       = "c3"
	Outlined = "outlined"
)

// Policies lists the valid policy names in documentation order.
func Policies() []string { return []string{None, C3, Outlined} }

// Valid reports whether name is a known policy ("" counts as None: the
// pipeline treats an unset knob as "leave the order alone").
func Valid(name string) bool {
	switch name {
	case "", None, C3, Outlined:
		return true
	}
	return false
}

// Options configures one Apply call.
type Options struct {
	// Policy selects the ordering; "" and None leave the program untouched.
	Policy string
	// Profile supplies the execution counts and call edges C3 consumes.
	// With a nil profile C3 is inert (no edge or entry data means no
	// evidence to reorder on), mirroring how cold-only outlining gating
	// degrades without a profile. Outlined does not read it.
	Profile *profile.Profile
	// Tracer receives layout/* counters and one "function-layout" remark per
	// cluster-merge decision. Strictly observational.
	Tracer *obs.Tracer
}

// Stats summarizes what one Apply call did.
type Stats struct {
	Policy string
	// Moved counts functions whose index changed.
	Moved int
	// Hot counts functions with profiled entries: the ones contributing
	// cluster weight.
	Hot int
	// Clusters is the final cluster count and Merges the accepted
	// cluster-merge count.
	Clusters int
	Merges   int
	// CapRejects counts edges whose merge was rejected because the combined
	// cluster would overflow the page cap.
	CapRejects int
}

// Apply reorders prog's functions in place according to the policy and
// returns what it did. The only error is an unknown policy name; every
// degraded input (C3 without a profile, an empty program, a profile naming
// no function in the program) leaves the order untouched rather than
// failing the build.
func Apply(prog *mir.Program, opts Options) (*Stats, error) {
	st := &Stats{Policy: opts.Policy}
	if st.Policy == "" {
		st.Policy = None
	}
	if !Valid(opts.Policy) {
		return nil, fmt.Errorf("layout: unknown policy %q (want %s)", opts.Policy, strings.Join(Policies(), ", "))
	}
	var order []*mir.Function
	switch {
	case len(prog.Funcs) == 0:
		return st, nil
	case st.Policy == Outlined:
		order = outlinedOrder(prog)
	case st.Policy == C3 && opts.Profile != nil:
		order = c3Order(prog, opts, st)
	default:
		return st, nil
	}
	for i, f := range order {
		if prog.Funcs[i] != f {
			st.Moved++
		}
	}
	prog.ReorderFuncs(order)
	emitCounters(opts.Tracer, st)
	return st, nil
}

func emitCounters(tr *obs.Tracer, st *Stats) {
	tr.Add("layout/functions_moved", int64(st.Moved))
	tr.Add("layout/hot_functions", int64(st.Hot))
	tr.Add("layout/clusters", int64(st.Clusters))
	tr.Add("layout/merges", int64(st.Merges))
	tr.Add("layout/cap_rejects", int64(st.CapRejects))
}

// callEdge is one caller→callee pair with its execution-weighted frequency
// (call sites to the same callee sum).
type callEdge struct {
	caller, callee int // function indices in original program order
	weight         int64
}

// cluster is a placement run: functions laid out contiguously, in order.
type cluster struct {
	funcs  []int // function indices, placement order
	bytes  int   // total code size
	weight int64 // summed profiled entry counts — the emission sort key
	min    int   // smallest original index — the deterministic tie-break
}

// c3Order implements call-chain clustering. Each function starts alone;
// edges are processed hottest first, appending the callee's cluster to the
// caller's when the callee still heads its cluster (it has not already been
// glued behind a hotter caller) and the merged cluster fits the page cap.
// Final emission orders clusters by descending weight, original position on
// ties — so unprofiled (weight-0) clusters keep their relative source order.
// The merge decisions behind the remarks are recorded only when the tracer
// collects remarks.
func c3Order(prog *mir.Program, opts Options, st *Stats) []*mir.Function {
	p, tr := opts.Profile, opts.Tracer
	remarks := tr.RemarksEnabled()
	index := make(map[string]int, len(prog.Funcs))
	for i, f := range prog.Funcs {
		index[f.Name] = i
	}

	// Collect edges in deterministic order: callers in program order, each
	// caller's edges in sorted key order, summed per (caller, callee) pair.
	var edges []callEdge
	for ci, f := range prog.Funcs {
		fp := p.Funcs[f.Name]
		if fp == nil || len(fp.Calls) == 0 {
			continue
		}
		keys := make([]string, 0, len(fp.Calls))
		for k := range fp.Calls {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		perCallee := make(map[int]int64)
		var callees []int
		for _, k := range keys {
			callee, _, ok := profile.SplitEdgeKey(k)
			if !ok {
				continue // hand-edited profile; skip like every other consumer
			}
			ti, inProg := index[callee]
			if !inProg || ti == ci || fp.Calls[k] <= 0 {
				continue // runtime entries, dead-stripped callees, self-calls
			}
			if _, seen := perCallee[ti]; !seen {
				callees = append(callees, ti)
			}
			perCallee[ti] += fp.Calls[k]
		}
		for _, ti := range callees {
			edges = append(edges, callEdge{caller: ci, callee: ti, weight: perCallee[ti]})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.weight != b.weight {
			return a.weight > b.weight
		}
		if prog.Funcs[a.caller].Name != prog.Funcs[b.caller].Name {
			return prog.Funcs[a.caller].Name < prog.Funcs[b.caller].Name
		}
		return prog.Funcs[a.callee].Name < prog.Funcs[b.callee].Name
	})

	// Singleton clusters, then greedy hottest-edge-first merging.
	clusters := make([]*cluster, len(prog.Funcs))
	owner := make([]*cluster, len(prog.Funcs))
	for i, f := range prog.Funcs {
		c := &cluster{funcs: []int{i}, bytes: f.CodeSize(), weight: p.Count(f.Name), min: i}
		if c.weight > 0 {
			st.Hot++
		}
		clusters[i] = c
		owner[i] = c
	}
	type decision struct {
		edge     callEdge
		cluster  int // the extended cluster's min index at merge time
		accepted bool
		reason   string
	}
	var decisions []decision
	for _, e := range edges {
		ca, cb := owner[e.caller], owner[e.callee]
		if ca == cb {
			continue // already placed together by a hotter chain
		}
		if cb.funcs[0] != e.callee {
			continue // callee already glued behind a hotter caller
		}
		if ca.bytes+cb.bytes > binimg.PageSize {
			st.CapRejects++
			if remarks {
				decisions = append(decisions, decision{edge: e, cluster: ca.min, reason: "cluster-cap"})
			}
			continue
		}
		ca.funcs = append(ca.funcs, cb.funcs...)
		ca.bytes += cb.bytes
		ca.weight += cb.weight
		if cb.min < ca.min {
			ca.min = cb.min
		}
		for _, fi := range cb.funcs {
			owner[fi] = ca
		}
		cb.funcs = nil // emptied; skipped at emission
		st.Merges++
		if remarks {
			decisions = append(decisions, decision{edge: e, cluster: ca.min, accepted: true})
		}
	}

	var live []*cluster
	for _, c := range clusters {
		if len(c.funcs) > 0 {
			live = append(live, c)
		}
	}
	st.Clusters = len(live)
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].weight != live[j].weight {
			return live[i].weight > live[j].weight
		}
		return live[i].min < live[j].min
	})
	order := make([]*mir.Function, 0, len(prog.Funcs))
	for _, c := range live {
		for _, fi := range c.funcs {
			order = append(order, prog.Funcs[fi])
		}
	}

	if !remarks {
		return order
	}
	// Final page assignment, then one remark per merge decision. Addresses
	// are the image's: functions packed back to back from 0 (binimg.Build).
	pageOf := make(map[string]int, len(order))
	addr := 0
	for _, f := range order {
		pageOf[f.Name] = addr / binimg.PageSize
		addr += f.CodeSize()
	}
	recs := make([]obs.Remark, 0, len(decisions))
	for _, d := range decisions {
		r := obs.Remark{
			Pass:       "function-layout",
			Status:     "selected",
			Caller:     prog.Funcs[d.edge.caller].Name,
			Function:   prog.Funcs[d.edge.callee].Name,
			Cluster:    d.cluster,
			EdgeWeight: d.edge.weight,
		}
		if d.accepted {
			r.Page = pageOf[r.Function]
		} else {
			r.Status = "rejected"
			r.Reason = d.reason
		}
		recs = append(recs, r)
	}
	tr.EmitBatch("function-layout", recs)
	return order
}
