package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"reflect"
	"strings"
	"time"

	"outliner/internal/fault"
	"outliner/internal/obs"
	"outliner/internal/profile"
)

// flagTable holds every build flag of the drivers (slc, outline, experiments,
// slcd) by name: its help text and the Config field it sets. A row without
// value binds the field itself, defaulting to the base Config's value. A row
// with one parses into that field of Flags, and Flags.Config resolves it onto
// the row's Config field.
var flagTable = map[string]struct {
	field, help string
	value       func(*Flags) any
}{
	"rounds":                 {"OutlineRounds", "rounds of repeated machine outlining, the artifact's llc -outline-repeat-count (0 disables)", nil},
	"whole-program":          {"WholeProgram", "use the whole-program pipeline (IR link before codegen)", nil},
	"flat-cost":              {"FlatOutlineCost", "ablation: flat outlining cost model", nil},
	"verify":                 {"Verify", "run the machine-code verifier after each pipeline stage and outlining round", nil},
	"j":                      {"Parallelism", "parallel build workers (0 = one per CPU, 1 = serial); output is identical for any value", nil},
	"cache-dir":              {"CacheDir", "content-addressed incremental build cache directory (empty = cache off); the built image is byte-identical cold or warm", nil},
	"keep-going":             {"KeepGoing", "compile every module even after one fails, then report all failures", nil},
	"on-verify-failure":      {"OnVerifyFailure", "outlining verifier-failure policy: abort | rollback-round | disable-outlining", nil},
	"outline-cold-threshold": {"OutlineColdThreshold", "outline only cold functions: with -profile-in, never extract from a function whose entry count reaches this (0 disables cold-only gating)", nil},
	"layout":                 {"Layout", "function layout policy: none | c3 (needs -profile-in to take effect) | outlined (each outlined function after its heaviest caller)", nil},
	"profile-in": {"Profile", "execution profile from slc -profile-out, or a comma-separated list of them (shards, other entry points) merged in any order: gives outliner remarks hot/cold verdicts and feeds -layout and -outline-cold-threshold",
		func(f *Flags) any { return &f.profileIn }},
	"fault-seed": {"Fault", "deterministic fault-injection schedule seed (used with -fault-rate)",
		func(f *Flags) any { return &f.faultSeed }},
	"fault-rate": {"Fault", "fault-injection probability per fault point (0 disables; a failing seed replays exactly at any -j)",
		func(f *Flags) any { return &f.faultRate }},
	"deadline": {"Ctx", "cancel the build after this wall-clock duration (0 = no deadline); a cancelled build publishes nothing to the cache",
		func(f *Flags) any { return &f.deadline }},
	"trace": {"Tracer", "write a Chrome trace-event JSON file (open in Perfetto or chrome://tracing)",
		func(f *Flags) any { return &f.trace }},
	"remarks": {"Tracer", "write outliner decision remarks as JSONL (one record per candidate decision)",
		func(f *Flags) any { return &f.remarks }},
	"summary": {"Tracer", "print an end-of-build summary to stderr: stage times, scoreboards, counters",
		func(f *Flags) any { return &f.summary }},
	"counters": {"Tracer", "write build counters as a JSON object to this file",
		func(f *Flags) any { return &f.counters }},
}

// Flags is a driver's share of the flag table, bound to a flag.FlagSet over
// the driver's base Config.
type Flags struct {
	cfg       Config
	profileIn string
	faultSeed uint64
	faultRate float64
	deadline  time.Duration

	trace, remarks, counters string
	summary                  bool

	tracer *obs.Tracer
	cancel context.CancelFunc
}

// NewFlags registers the named rows of the flag table on fs. Each flag's
// default is base's value of the field it sets.
func NewFlags(fs *flag.FlagSet, base Config, names ...string) *Flags {
	f := &Flags{cfg: base}
	for _, name := range names {
		r, ok := flagTable[name]
		if !ok {
			panic("pipeline: no build flag -" + name)
		}
		p := reflect.ValueOf(&f.cfg).Elem().FieldByName(r.field).Addr().Interface()
		if r.value != nil {
			p = r.value(f)
		}
		switch p := p.(type) {
		case *bool:
			fs.BoolVar(p, name, *p, r.help)
		case *int:
			fs.IntVar(p, name, *p, r.help)
		case *int64:
			fs.Int64Var(p, name, *p, r.help)
		case *uint64:
			fs.Uint64Var(p, name, *p, r.help)
		case *float64:
			fs.Float64Var(p, name, *p, r.help)
		case *string:
			fs.StringVar(p, name, *p, r.help)
		case *time.Duration:
			fs.DurationVar(p, name, *p, r.help)
		}
	}
	return f
}

// Config resolves the parsed flags onto the base: it reads the -profile-in
// list, arms -fault-seed/-fault-rate, starts the -deadline, and builds one
// tracer when any telemetry output is requested (fine spans only for -trace).
func (f *Flags) Config() (Config, error) {
	cfg := f.cfg
	if f.profileIn != "" {
		p, err := profile.ReadFiles(strings.Split(f.profileIn, ",")...)
		if err != nil {
			return cfg, err
		}
		cfg.Profile = p
	}
	if f.faultRate > 0 {
		cfg.Fault = fault.New(f.faultSeed, f.faultRate)
	}
	if f.deadline > 0 {
		cfg.Ctx, f.cancel = context.WithTimeout(context.Background(), f.deadline)
	}
	if f.trace != "" || f.remarks != "" || f.summary || f.counters != "" {
		cfg.Tracer = obs.NewWith(obs.Config{FineSpans: f.trace != "", MemStats: true})
	}
	f.tracer = cfg.Tracer
	return cfg, nil
}

// Summary reports whether -summary was given.
func (f *Flags) Summary() bool { return f.summary }

// Finish releases the deadline and writes every telemetry output the flags
// requested: the trace, the remarks, the summary on stderr and the counters.
// It runs whether or not the build failed, since the resilience counters
// matter most when it did, and returns the build's error err when there is
// one, else the first write error.
func (f *Flags) Finish(err error) error {
	if f.cancel != nil {
		f.cancel()
	}
	tr := f.tracer
	var errs []error
	if f.trace != "" {
		errs = append(errs, tr.WriteTraceFile(f.trace))
	}
	if f.remarks != "" {
		errs = append(errs, tr.WriteRemarksFile(f.remarks))
	}
	if f.summary {
		errs = append(errs, tr.WriteSummary(os.Stderr))
	}
	if f.counters != "" {
		data, err := json.MarshalIndent(tr.Counters(), "", "  ")
		if err == nil {
			err = os.WriteFile(f.counters, append(data, '\n'), 0o644)
		}
		errs = append(errs, err)
	}
	if err != nil {
		return err
	}
	return errors.Join(errs...)
}
