package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"text/tabwriter"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the process
// runs there or inside benchmark/.
func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return nil, err
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// set is what -all prints: every workload's rows, one per run.
type set struct {
	Runs    int                 `json:"runs"`
	Seed    int64               `json:"seed"`
	Seconds float64             `json:"seconds"`
	Trace   bool                `json:"trace"`
	Rows    map[string][]result `json:"rows"`
}

// exactCounts are outputs of a deterministic compiler on a fixed corpus: two
// runs of one commit must agree to the last digit.
var exactCounts = map[string]bool{
	"code_bytes": true, "image_bytes": true, "exec_dyn_insts": true,
	"exec_sim_cycles": true, "touched_pages_4k": true, "cross_page_call_pct": true,
}

// runAll runs every workload runs times, each run a fresh child process so
// peak_rss_mb belongs to one workload, and prints the merged set.
func runAll(o options, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := set{Runs: runs, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Rows: map[string][]result{}}
	bad := 0
	for _, w := range workloads {
		for k := 0; k < runs; k++ {
			trace := "0"
			if o.trace {
				trace = "1"
			}
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(k), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace,
				"-ops", strconv.Itoa(o.ops), "-modules", strconv.Itoa(o.modules),
				"-corpus-seed", strconv.FormatInt(o.corpusSeed, 10), "-out", o.out)
			cmd.Stderr = os.Stderr
			stdout, runErr := cmd.Output()
			var row result
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &row); err != nil {
				return fmt.Errorf("%s run %d printed no result (%v): %w", w.name, k, runErr, err)
			}
			if runErr != nil || !row.Correct || row.Failed > 0 {
				bad++
			}
			out.Rows[w.name] = append(out.Rows[w.name], row)
		}
	}
	if !o.trace && bad == 0 {
		// Cold and edit builds run one pipeline over one corpus: same code.
		cold, edit := out.Rows["pm-cold"][0].Metrics["code_bytes"], out.Rows["pm-edit"][0].Metrics["code_bytes"]
		if cold.Value != edit.Value {
			fmt.Fprintf(os.Stderr, "benchmark: pm-cold built %v code bytes, pm-edit %v\n", cold.Value, edit.Value)
			bad++
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d runs or cross-workload checks failed", bad)
	}
	return nil
}

func readSet(path string) (*set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// column gathers one metric's value from every run of a workload.
func column(rows []result, name string) []float64 {
	var xs []float64
	for _, r := range rows {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives. Fewer than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(cut(3)-cut(1), cut(2))
}

// compareSets prints, per workload and end-to-end metric, both medians, their
// relative difference, the bound and the verdict, and reports whether b is
// acceptable against a.
func compareSets(w io.Writer, pathA, pathB string, sameCode bool) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tdiff\tspread\tbound\tverdict\t")
	for _, wl := range sp.Workloads {
		ra, rb := a.Rows[wl.Name], b.Rows[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("workload %s is missing from a set", wl.Name)
		}
		for _, m := range sp.EndToEnd {
			xa, xb := column(ra, m.Name), column(rb, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return false, fmt.Errorf("%s/%s is missing from a set", wl.Name, m.Name)
			}
			ma, mb := quantile(xa, 0.5), quantile(xb, 0.5)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(quartileSpread(xa), quartileSpread(xb))
			verdict := "ok"
			switch {
			case sameCode && exactCounts[m.Name] && ma != mb:
				verdict = "DIFFERS"
			case worse > m.Bound:
				verdict = "WORSE"
			case spread > m.Bound:
				verdict = "UNRESOLVED"
			}
			if verdict != "ok" {
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%s\t\n",
				wl.Name, m.Name, ma, mb, 100*ratio(mb-ma, ma), 100*spread, 100*m.Bound, verdict)
		}
		fa, fb := 0, 0
		for _, r := range ra {
			fa += r.Failed
		}
		for _, r := range rb {
			fb += r.Failed
		}
		verdict := "ok"
		if fb > fa {
			verdict, ok = "WORSE", false
		}
		fmt.Fprintf(tw, "%s\tfailed ops\t%d\t%d\t\t\t\t%s\t\n", wl.Name, fa, fb, verdict)
	}
	return ok, tw.Flush()
}
