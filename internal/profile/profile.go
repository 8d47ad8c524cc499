// Package profile defines the instrumented-run execution profile that
// connects the executor (internal/exec) to the build pipeline: per-function
// entry counts, call edges with function-relative call-site offsets,
// basic-block execution counts, and per-function dynamic step totals.
//
// Profiles are the input to hot/cold-aware outlining (the BOLT outliner's
// --outliner-cold-only / --outliner-cold-threshold) and to the profile-driven
// layout work in internal/perf: outlining cold code is nearly free, while
// outlining a hot path pays an extra call on every execution — the trade-off
// the paper's production evaluation (§VII) turns on.
//
// The on-disk format is versioned, canonical JSON: map keys serialize in
// sorted order, so identical in-memory profiles produce identical bytes, and
// the encoded form doubles as a content hash input (Digest participates in
// machine-stage cache fingerprints). Merge is commutative and associative —
// profiles from many runs, many entry points, or many collection shards
// combine into bit-identical bytes regardless of merge order.
package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SchemaVersion identifies the profile file format. Like
// artifact.SchemaVersion it participates in cache fingerprints (via Digest's
// coverage of the encoded bytes), so readers reject files written by an
// incompatible writer instead of misreading them.
const SchemaVersion = 1

// FuncProfile is one function's execution counts.
type FuncProfile struct {
	// Entries counts how many times control entered the function: calls
	// (BL/BLR), cross-function tail calls, and being a run's entry point.
	Entries int64 `json:"entries"`
	// Steps is the dynamic instruction count attributed to the function.
	Steps int64 `json:"steps"`
	// Blocks maps basic-block label to execution count.
	Blocks map[string]int64 `json:"blocks,omitempty"`
	// Calls maps a call edge — "<callee>@+<site offset>" where the offset is
	// the call instruction's byte offset from the caller's entry — to the
	// number of times the edge executed. Offsets are function-relative, so
	// edges survive relinking at different image addresses.
	Calls map[string]int64 `json:"calls,omitempty"`
}

// EdgeKey builds the canonical Calls key for a callee and a function-relative
// call-site offset.
func EdgeKey(callee string, offset int64) string {
	return fmt.Sprintf("%s@+%d", callee, offset)
}

// SplitEdgeKey parses an EdgeKey back into callee and offset. ok is false
// for malformed keys (hand-edited profiles), which consumers should skip.
func SplitEdgeKey(edge string) (callee string, offset int64, ok bool) {
	i := strings.LastIndex(edge, "@+")
	if i < 0 {
		return "", 0, false
	}
	off, err := strconv.ParseInt(edge[i+2:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return edge[:i], off, true
}

// Profile is a merged set of execution counts keyed by function name.
type Profile struct {
	Funcs map[string]*FuncProfile

	digestOnce sync.Once
	digest     string
}

// New returns an empty profile.
func New() *Profile {
	return &Profile{Funcs: make(map[string]*FuncProfile)}
}

// Func returns (creating if needed) the named function's counts.
func (p *Profile) Func(name string) *FuncProfile {
	if p.Funcs == nil {
		p.Funcs = make(map[string]*FuncProfile)
	}
	f := p.Funcs[name]
	if f == nil {
		f = &FuncProfile{}
		p.Funcs[name] = f
	}
	return f
}

// Count returns the function's entry count (0 for unprofiled functions).
func (p *Profile) Count(name string) int64 {
	if p == nil {
		return 0
	}
	if f := p.Funcs[name]; f != nil {
		return f.Entries
	}
	return 0
}

// TotalSteps sums dynamic instructions across all functions.
func (p *Profile) TotalSteps() int64 {
	if p == nil {
		return 0
	}
	var n int64
	for _, f := range p.Funcs {
		n += f.Steps
	}
	return n
}

// Merge folds other's counts into p. Addition is commutative and
// associative, so any merge order over any sharding of the same runs yields
// the same profile — and hence byte-identical Encode output.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for name, of := range other.Funcs {
		f := p.Func(name)
		f.Entries += of.Entries
		f.Steps += of.Steps
		for label, n := range of.Blocks {
			if f.Blocks == nil {
				f.Blocks = make(map[string]int64, len(of.Blocks))
			}
			f.Blocks[label] += n
		}
		for edge, n := range of.Calls {
			if f.Calls == nil {
				f.Calls = make(map[string]int64, len(of.Calls))
			}
			f.Calls[edge] += n
		}
	}
}

// Merged returns the merge of ps into a fresh profile.
func Merged(ps ...*Profile) *Profile {
	out := New()
	for _, p := range ps {
		out.Merge(p)
	}
	return out
}

// FuncStat is one row of the hot-function report.
type FuncStat struct {
	Name    string
	Entries int64
	Steps   int64
}

// TopN returns the n hottest functions by dynamic step count (ties resolve
// by name, so the report is deterministic).
func (p *Profile) TopN(n int) []FuncStat {
	if p == nil {
		return nil
	}
	stats := make([]FuncStat, 0, len(p.Funcs))
	for name, f := range p.Funcs {
		stats = append(stats, FuncStat{Name: name, Entries: f.Entries, Steps: f.Steps})
	}
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].Steps != stats[j].Steps {
			return stats[i].Steps > stats[j].Steps
		}
		return stats[i].Name < stats[j].Name
	})
	if n < len(stats) {
		stats = stats[:n]
	}
	return stats
}

// fileForm is the serialized shape. encoding/json emits map keys in sorted
// order, which (with stable struct field order and fixed indentation) makes
// Encode canonical: equal profiles produce equal bytes.
type fileForm struct {
	Schema int                     `json:"schema"`
	Funcs  map[string]*FuncProfile `json:"functions"`
}

// Encode serializes the profile canonically (sorted keys, schema header,
// trailing newline).
func (p *Profile) Encode() []byte {
	funcs := p.Funcs
	if funcs == nil {
		funcs = map[string]*FuncProfile{}
	}
	data, err := json.MarshalIndent(fileForm{Schema: SchemaVersion, Funcs: funcs}, "", "  ")
	if err != nil {
		// Unreachable: the form contains only maps, strings, and integers.
		panic(fmt.Sprintf("profile: encode: %v", err))
	}
	return append(data, '\n')
}

// Decode parses an encoded profile, rejecting unknown schema versions and
// malformed input with an error, never a panic.
func Decode(data []byte) (*Profile, error) {
	var f fileForm
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if f.Schema != SchemaVersion {
		return nil, fmt.Errorf("profile: schema version %d, want %d", f.Schema, SchemaVersion)
	}
	p := New()
	for name, fp := range f.Funcs {
		if fp == nil {
			return nil, fmt.Errorf("profile: null entry for function %q", name)
		}
		p.Funcs[name] = fp
	}
	return p, nil
}

// WriteFile writes the canonical encoding to path.
func (p *Profile) WriteFile(path string) error {
	return os.WriteFile(path, p.Encode(), 0o644)
}

// ReadFile reads and decodes a profile file.
func ReadFile(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// ReadFiles reads and merges any number of profile files (shards from
// parallel collection, runs of different entry points).
func ReadFiles(paths ...string) (*Profile, error) {
	out := New()
	for _, path := range paths {
		p, err := ReadFile(path)
		if err != nil {
			return nil, err
		}
		out.Merge(p)
	}
	return out, nil
}

// Digest returns a short hex content hash of the canonical encoding — the
// profile identity that joins the machine-stage cache fingerprint, so a
// profiled build can never collide with a clean build's cache entries.
// Memoized: a profile is read-only once it feeds a build, and the default
// pipeline fingerprints it once per module.
func (p *Profile) Digest() string {
	if p == nil {
		return "none"
	}
	p.digestOnce.Do(func() {
		sum := sha256.Sum256(p.Encode())
		p.digest = hex.EncodeToString(sum[:16])
	})
	return p.digest
}
