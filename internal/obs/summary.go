package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// WriteSummary renders the human-readable end-of-build report: stage times,
// the verifier, cache, single-flight and resilience scoreboards, and counter
// totals. What outlining achieved round by round is the build's result, not a
// counter (pipeline.Result.Outline); its callers print that themselves.
func (t *Tracer) WriteSummary(w io.Writer) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "telemetry disabled")
		return err
	}
	totals := t.StageTotals()
	counters := t.Counters()

	fmt.Fprintln(w, "== build summary ==")
	if len(totals) > 0 {
		fmt.Fprintln(w, "\nstage times (same-name stages summed across modules and rounds):")
		rows := [][]string{{"stage", "total"}}
		for _, k := range sortedCounterKeys(totals) {
			rows = append(rows, []string{k, totals[k].Round(time.Microsecond).String()})
		}
		writeTable(w, rows)
	}

	// The machine-verifier scoreboard: counts accumulate across every stage
	// and outlining round that ran the verifier. The function count is of
	// checks actually run: an outlining round after the first re-checks only
	// the functions it wrote to, and adds only those.
	if fn, ok := counters["verify/functions"]; ok {
		fmt.Fprintf(w, "\nverified %d functions, %d violations\n",
			fn, counters["verify/violations"])
	}

	// The incremental-cache scoreboard, present whenever a build probed the
	// cache (-cache-dir was set).
	if probes := counters["cache/probes"]; probes > 0 {
		hits := counters["cache/hits"]
		fmt.Fprintf(w, "\ncache: %d probes, %d hits, %d misses (%.1f%% hit rate), "+
			"%d bytes read, %d bytes written\n",
			probes, hits, counters["cache/misses"],
			100*float64(hits)/float64(probes),
			counters["cache/bytes_read"], counters["cache/bytes_written"])
		// Per-stage attribution, then the work the misses actually cost: a
		// warm build parses and decodes only what an edit invalidated.
		rows := [][]string{{"stage", "probes", "hits", "misses"}}
		for _, stage := range []string{"iface", "llir", "machine"} {
			if n := counters["cache/"+stage+"/probes"]; n > 0 {
				rows = append(rows, []string{stage, fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", counters["cache/"+stage+"/hits"]),
					fmt.Sprintf("%d", counters["cache/"+stage+"/misses"])})
			}
		}
		writeTable(w, rows)
		fmt.Fprintf(w, "cache work: %d modules parsed, %d llir bodies decoded\n",
			counters["frontend/modules_parsed"], counters["cache/llir/bodies_decoded"])
		if ns := counters["cache/key_hash_ns"]; ns > 0 {
			fmt.Fprintf(w, "cache keys: %s hashing sources and interface digests\n",
				time.Duration(ns).Round(time.Microsecond))
		}
		// Per-tier hit attribution (cache/tier/<tier>/hits): which tier —
		// memory, disk, or a remote shard — actually served each hit.
		var tiers []string
		for name, v := range counters {
			if v > 0 && strings.HasPrefix(name, "cache/tier/") && strings.HasSuffix(name, "/hits") {
				tiers = append(tiers, name)
			}
		}
		if len(tiers) > 0 {
			sort.Strings(tiers)
			fmt.Fprintln(w, "cache hits by tier:")
			rows := [][]string{{"tier", "hits"}}
			for _, k := range tiers {
				tier := strings.TrimSuffix(strings.TrimPrefix(k, "cache/tier/"), "/hits")
				rows = append(rows, []string{tier, fmt.Sprintf("%d", counters[k])})
			}
			writeTable(w, rows)
		}
	}

	// The single-flight scoreboard, present in any cached build: stage
	// computations actually executed vs. builds that consumed another
	// in-flight build's result.
	if computes, deduped := counters["flight/computes"], counters["flight/deduped"]; computes > 0 || deduped > 0 {
		fmt.Fprintf(w, "\nsingle-flight: %d stage computes, %d deduped "+
			"(iface %d/%d, llir %d/%d, machine %d/%d)\n",
			computes, deduped,
			counters["flight/iface/computes"], counters["flight/iface/deduped"],
			counters["flight/llir/computes"], counters["flight/llir/deduped"],
			counters["flight/machine/computes"], counters["flight/machine/deduped"])
	}

	// The resilience scoreboard: what the build survived or degraded over —
	// rolled-back outlining rounds, retried/failed cache I/O, recovered
	// worker panics, keep-going module failures, and (under -fault-seed)
	// every injected fault by site. Absent entirely on an untroubled build.
	var resilience []string
	for name, v := range counters {
		if v == 0 {
			continue
		}
		switch {
		case strings.HasPrefix(name, "fault/"),
			name == "outline/rounds_rolled_back",
			name == "build/keep_going_errors",
			name == "cache/retries",
			name == "cache/remove_failed",
			name == "cache/io_errors",
			name == "cache/remote_errors",
			name == "cache/corrupt":
			resilience = append(resilience, name)
		}
	}
	if len(resilience) > 0 {
		sort.Strings(resilience)
		fmt.Fprintln(w, "\nresilience (faults survived, degradations taken):")
		rows := [][]string{{"event", "count"}}
		for _, k := range resilience {
			rows = append(rows, []string{k, fmt.Sprintf("%d", counters[k])})
		}
		writeTable(w, rows)
	}

	if len(counters) > 0 {
		fmt.Fprintln(w, "\ncounters:")
		rows := [][]string{{"counter", "value"}}
		for _, k := range sortedCounterKeys(counters) {
			rows = append(rows, []string{k, fmt.Sprintf("%d", counters[k])})
		}
		writeTable(w, rows)
	}

	if n := len(t.Remarks()); n > 0 {
		selected := int64(0)
		for _, r := range t.Remarks() {
			if r.Status == "selected" {
				selected++
			}
		}
		fmt.Fprintf(w, "\nremarks: %d candidate decisions (%d selected, %d rejected)\n",
			n, selected, int64(n)-selected)
	}
	return nil
}

func sortedCounterKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeTable renders rows with aligned columns (two-space gutters).
func writeTable(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		var b strings.Builder
		b.WriteString("  ")
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}
