package slcd

import (
	"context"
	"errors"
	"fmt"

	"outliner/internal/cache"
	"outliner/internal/fault"
	"outliner/internal/par"
	"outliner/internal/pipeline"
	"outliner/internal/profile"
	"outliner/internal/verify"
)

// ModuleSource is one module in a build request: named SwiftLite files,
// mirroring pipeline.Source.
type ModuleSource struct {
	Name  string            `json:"name"`
	Files map[string]string `json:"files"`
}

// BuildConfig mirrors the pipeline.Config knobs a remote client may set.
// Absent fields take DefaultConfig's values, so a minimal request — just
// modules — gets a verified per-module build with five outlining rounds.
// Accelerator state (cache directory, remote shards, the single-flight layer,
// parallelism) is the daemon's, not the request's: clients describe what to
// build, the farm decides how.
type BuildConfig struct {
	WholeProgram    bool   `json:"whole_program"`
	OutlineRounds   int    `json:"outline_rounds"`
	MergeFunctions  bool   `json:"merge_functions"`
	FMSA            bool   `json:"fmsa"` // the merger's similar policy; implies identical folding
	FlatOutlineCost bool   `json:"flat_outline_cost"`
	Verify          bool   `json:"verify"`
	KeepGoing       bool   `json:"keep_going"`
	OnVerifyFailure string `json:"on_verify_failure,omitempty"`
	// FaultSeed/FaultRate arm deterministic fault injection for this request
	// only (chaos drills against a live daemon). A fault-armed request builds
	// on a private cache handle with its own flight and no remote tier —
	// injected damage must never leak into concurrent clean builds.
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// FaultDisruptive additionally admits the disruptive fault kinds (hung
	// workers, induced cancellation) into this request's chaos schedule.
	// Disruptive drills only make sense with a deadline: set TimeoutMS so a
	// hung worker is cancelled instead of wedging the request forever.
	FaultDisruptive bool `json:"fault_disruptive,omitempty"`
	// TimeoutMS caps this request's wall-clock build time. The daemon combines
	// it with its own -deadline (the smaller wins); past the cap the build is
	// cancelled mid-stage and the response reports error_class "deadline".
	// 0 means no per-request cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Layout selects the function-layout policy ("none", "c3" or
	// "outlined"); Profile carries the execution profile c3 reads, in the
	// canonical encoding profile.Encode emits.
	// The profile travels in the request — the farm has no filesystem view of
	// the client's instrumented runs.
	Layout  string `json:"layout,omitempty"`
	Profile []byte `json:"profile,omitempty"`
}

// DefaultConfig is the request config slcd assumes for absent fields: a
// verified per-module build (WholeProgram false) with five outlining rounds
// and function merging. slc's default build is whole-program instead.
func DefaultConfig() BuildConfig {
	return BuildConfig{
		OutlineRounds:  5,
		MergeFunctions: true,
		Verify:         true,
	}
}

// BuildRequest is the POST /build payload.
type BuildRequest struct {
	Modules []ModuleSource `json:"modules"`
	Config  BuildConfig    `json:"config"`
}

// BuildResponse is the POST /build reply. A failed build still carries its
// counters: the resilience counters matter most exactly when a build fails.
type BuildResponse struct {
	OK bool `json:"ok"`
	// Error and ErrorClass are set when OK is false. ErrorClass buckets the
	// failure the way the fault-tolerance tests do: "panic" (recovered worker
	// panic), "verify" (machine verifier rejection), "injected" (surfaced
	// injected fault), "deadline" (the request's or daemon's time cap
	// expired), "canceled" (client disconnect or drain hard-cancel),
	// "aborted" (a single-flight leader's build was cancelled; re-request
	// recomputes), "shed" (admission queue full), "drain" (daemon draining for
	// shutdown), or "build" (everything else — front-end errors, keep-going
	// aggregates of unstructured failures).
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Listing is the deterministic image listing — the byte-comparison
	// artifact. Two responses describe the same binary iff their listings are
	// byte-identical.
	Listing   string           `json:"listing,omitempty"`
	CodeSize  int              `json:"code_size,omitempty"`
	TotalSize int              `json:"total_size,omitempty"`
	Counters  map[string]int64 `json:"counters,omitempty"`
}

// pipelineConfig lowers the request config onto a pipeline.Config, leaving
// the daemon-owned fields (Tracer, CacheDir, Parallelism) for the
// server to fill in. The outlining mode and layout policy are checked by
// pipeline.Build, before any stage runs.
func (c BuildConfig) pipelineConfig() (pipeline.Config, error) {
	cfg := pipeline.OSize
	cfg.WholeProgram = c.WholeProgram
	cfg.OutlineRounds = c.OutlineRounds
	cfg.MergeFunctions = c.MergeFunctions
	cfg.FMSA = c.FMSA
	cfg.FlatOutlineCost = c.FlatOutlineCost
	cfg.Verify = c.Verify
	cfg.KeepGoing = c.KeepGoing
	cfg.OnVerifyFailure = c.OnVerifyFailure
	cfg.Layout = c.Layout
	if c.FaultRate > 0 {
		inj := fault.New(c.FaultSeed, c.FaultRate)
		if c.FaultDisruptive {
			inj.EnableDisruptive()
		}
		cfg.Fault = inj
	}
	if len(c.Profile) > 0 {
		p, err := profile.Decode(c.Profile)
		if err != nil {
			return pipeline.Config{}, fmt.Errorf("slcd: request profile: %w", err)
		}
		cfg.Profile = p
	}
	return cfg, nil
}

// sources converts the request's modules to pipeline sources.
func (r *BuildRequest) sources() []pipeline.Source {
	out := make([]pipeline.Source, len(r.Modules))
	for i, m := range r.Modules {
		out[i] = pipeline.Source{Name: m.Name, Files: m.Files}
	}
	return out
}

// classifyError buckets a build failure for BuildResponse.ErrorClass. It
// mirrors the fault-tolerance contract's structuredFailure predicate:
// anything outside these classes in a fault-armed build is a bug.
func classifyError(err error) string {
	// Cancellation classes first: a deadline-exceeded build may wrap an
	// injected fault (the hang that burned the clock), and the cancellation
	// is the truth the client acts on.
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline"
	}
	if errors.Is(err, context.Canceled) {
		return "canceled"
	}
	if errors.Is(err, cache.ErrFlightAborted) {
		return "aborted"
	}
	var pe *par.PanicError
	if errors.As(err, &pe) {
		return "panic"
	}
	var ve *verify.Error
	if errors.As(err, &ve) {
		return "verify"
	}
	if fault.IsInjected(err) {
		return "injected"
	}
	return "build"
}
