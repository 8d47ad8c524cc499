package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Remark is one outliner candidate decision, in the spirit of LLVM's
// optimization remarks (-pass-remarks / -fsave-optimization-record): the
// machine-readable record of why the greedy outliner accepted or rejected a
// repeated sequence. One remark is emitted per candidate set per round, so
// the stream reconstructs the entire selection process — the data behind the
// paper's Figure 12 / Table II style analysis.
type Remark struct {
	// Pass identifies the emitting pass ("machine-outliner").
	Pass string `json:"pass"`
	// Status is "selected" or "rejected".
	Status string `json:"status"`
	// Reason explains a rejection (empty when selected):
	// "sp-access-under-lr-spill", "too-few-occurrences", "unprofitable",
	// "occurrences-overlap", "unprofitable-after-overlap", "hot-function".
	Reason string `json:"reason,omitempty"`
	// Round is the 1-based repeated-outlining round.
	Round int `json:"round"`
	// Module scopes per-module outlining in the default pipeline (empty for
	// whole-program outlining).
	Module string `json:"module,omitempty"`
	// Function is the created outlined function (selected candidates only).
	Function string `json:"function,omitempty"`
	// PatternLen is the candidate sequence length in instructions.
	PatternLen int `json:"patternLen"`
	// Occurrences is the number of (non-overlapping) instances considered.
	Occurrences int `json:"occurrences"`
	// Benefit is the computed net byte saving of outlining every occurrence
	// (0 when costing was never reached).
	Benefit int `json:"benefit"`
	// Strategy is the emission strategy ("tail-call", "thunk", "plain";
	// empty when classification was never reached).
	Strategy string `json:"strategy,omitempty"`
	// ExecCount is the execution profile's entry count for the hottest
	// function hosting an occurrence of this candidate. Present only when a
	// profile fed the build (-profile-in).
	ExecCount int64 `json:"execCount,omitempty"`
	// Hotness is the profile verdict for the candidate: "hot" when ExecCount
	// meets the cold threshold, "cold" otherwise. Empty without a profile.
	Hotness string `json:"hotness,omitempty"`

	// The fields below are emitted by the "function-layout" pass (one remark
	// per cluster-merge decision); the outliner leaves them zero.
	//
	// Caller and Function name the call edge driving the decision (Function
	// doubles as the callee slot). Cluster is the 0-based id of the cluster
	// the merge extended, EdgeWeight the execution-weighted call-edge
	// frequency that ranked the edge, and Page the 0-based code page the
	// callee's entry landed on in the final layout (selected remarks only).
	Caller     string `json:"caller,omitempty"`
	Cluster    int    `json:"cluster,omitempty"`
	EdgeWeight int64  `json:"edgeWeight,omitempty"`
	Page       int    `json:"page,omitempty"`
}

// remarkBatch is the atomic emission unit: every remark of one
// outline.Outline call round, tagged with a deterministic origin key.
// Batches from concurrent per-module outliner runs interleave in completion
// order, so WriteRemarks re-sorts batches by origin (stably, preserving
// in-batch order) to make the stream deterministic for a given build.
type remarkBatch struct {
	origin string
	recs   []Remark
}

// EmitBatch records a group of remarks atomically under a deterministic
// origin key (the outliner uses its function-name prefix). The tracer takes
// ownership of recs: the caller must not write to it afterwards.
func (t *Tracer) EmitBatch(origin string, recs []Remark) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	t.batches = append(t.batches, remarkBatch{origin: origin, recs: recs})
	t.mu.Unlock()
}

// Remarks returns every remark in deterministic order: batches sorted by
// origin (stable), in-batch order preserved.
func (t *Tracer) Remarks() []Remark {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	batches := append([]remarkBatch(nil), t.batches...)
	t.mu.Unlock()
	sort.SliceStable(batches, func(i, j int) bool { return batches[i].origin < batches[j].origin })
	var out []Remark
	for _, b := range batches {
		out = append(out, b.recs...)
	}
	return out
}

// WriteRemarks writes the remark stream as JSONL (one JSON object per line),
// in the deterministic order of Remarks. A nil Tracer writes nothing.
func (t *Tracer) WriteRemarks(w io.Writer) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range t.Remarks() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRemarksFile writes the remark stream to path.
func (t *Tracer) WriteRemarksFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteRemarks(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRemarks parses a JSONL remark stream (the round-trip inverse of
// WriteRemarks).
func ReadRemarks(r io.Reader) ([]Remark, error) {
	var out []Remark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Remark
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("obs: remarks line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
