package pipeline

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"time"

	"outliner/internal/artifact"
	"outliner/internal/cache"
	"outliner/internal/fault"
	"outliner/internal/mir"
	"outliner/internal/obs"
	"outliner/internal/par"
	"outliner/internal/profile"
	"outliner/internal/verify"
)

// stage is one declared step of a build. Build and BuildMIR are lists of
// stages, and build.run gives every stage the same frame, so a stage declares
// only its own work:
//
//   - before it, a CancelStep fault point ("step:<name>") and a check of the
//     build's context;
//   - around it, the stage span its time is summed under in Result.Timings;
//   - for a per-task stage, the pool: one task per name, each behind the
//     WorkerTask and WorkerHang fault points keyed "<name> <task>", with
//     keep-going aggregation under cfg.KeepGoing;
//   - for a cached stage, the build cache around each task: the key and its
//     timing, then runStage's probe, decode, single flight and publish;
//   - with cfg.Verify, the machine verifier over what the stage produced. (The
//     SIL and LLIR verifiers belong to the IR passes they check.)
type stage struct {
	name string
	// timing is the Result.Timings entry the stage's span sums into; ""
	// opens no span.
	timing string
	// skip leaves the stage out of a build; nil runs it always.
	skip func(Config) bool
	// body is the stage's work; a per-task stage runs it before its tasks.
	body func(*build) error
	// tasks names a per-task stage's tasks. task computes task i on pool
	// lane lane, and done receives its result, computed or decoded.
	tasks func(*build) []string
	task  func(b *build, lane, i int) (any, error)
	done  func(b *build, i int, v any)
	// end runs after the tasks, whether they failed or not: it drops what
	// only the tasks used.
	end func(*build)
	// verify returns the machine program the stage produced — for a
	// per-task stage, the one task result v holds — and the symbols external
	// to it.
	verify func(b *build, v any) (*mir.Program, map[string]bool)

	// A cached stage stores task i's artifact under cache.Key{Stage: cache,
	// Input: key(b, i), Config: keyConfig(reads(cfg))}. reads keeps exactly
	// the Config fields the artifact depends on; a field it may drop is one
	// that cannot change the artifact. A hit decodes the stored bytes (sp is
	// the task's cache span) instead of running task.
	cache  string
	reads  func(Config) Config
	key    func(b *build, i int) string
	decode func(b *build, i int, data []byte, sp *obs.Span) (any, error)
	encode func(any) []byte
}

// run runs the stage lists in order and stops at the first failure.
func (b *build) run(lists ...[]stage) error {
	for _, list := range lists {
		for i := range list {
			s := &list[i]
			if s.skip != nil && s.skip(b.cfg) {
				continue
			}
			if err := b.step(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// step runs one stage in its frame.
func (b *build) step(s *stage) error {
	cfg := &b.cfg
	if cfg.Fault.Fires(fault.CancelStep, "step:"+s.name, fault.CancelKind) {
		b.cancel()
	}
	if err := cfg.Ctx.Err(); err != nil {
		return fmt.Errorf("pipeline: before %s: build cancelled: %w", s.name, err)
	}
	var sp *obs.Span
	if s.timing != "" {
		sp = cfg.Tracer.StartStage(s.timing, 0)
	}
	err := b.work(s)
	sp.End()
	if err == nil && s.tasks == nil {
		if err = b.verified(s, nil); err != nil {
			return fmt.Errorf("pipeline: after %s: %w", s.name, err)
		}
	}
	return err
}

// work runs a stage's body and then its tasks, if it has any.
func (b *build) work(s *stage) error {
	cfg, tr := &b.cfg, b.cfg.Tracer
	if s.body != nil {
		if err := s.body(b); err != nil {
			notePanics(tr, err)
			return fmt.Errorf("pipeline: %s: %w", s.name, err)
		}
	}
	if s.tasks == nil {
		return nil
	}
	names := s.tasks(b)
	cached := s.cache != "" && b.bc.enabled()
	var keyCfg string
	if cached {
		keyCfg = keyConfig(s.reads(*cfg))
	}
	errs := par.Run(cfg.Ctx, s.name, cfg.Parallelism, len(names), cfg.KeepGoing, func(lane, i int) error {
		v, err := b.runTask(s, cached, keyCfg, names[i], lane, i)
		if err != nil {
			return fmt.Errorf("pipeline: %s %s: %w", s.name, names[i], err)
		}
		if s.done != nil {
			s.done(b, i, v)
		}
		return nil
	})
	if s.end != nil {
		s.end(b)
	}
	if cfg.KeepGoing {
		return gatherKeepGoing(tr, errs)
	}
	for _, err := range errs {
		if err != nil {
			notePanics(tr, err)
			return err
		}
	}
	return nil
}

// runTask runs task i of s, named name, on pool lane lane: the worker fault
// points, then the task — through the build cache when s is cached.
func (b *build) runTask(s *stage, cached bool, keyCfg, name string, lane, i int) (any, error) {
	cfg, tr := &b.cfg, b.cfg.Tracer
	// The label is built only for a reader: a fault schedule or a fine trace.
	var label string
	if cfg.Fault != nil || tr.FineEnabled() {
		label = s.name + " " + name
	}
	cfg.Fault.MaybePanic(fault.WorkerTask, label)
	if cfg.Fault.Fires(fault.WorkerHang, label, fault.HangKind) {
		// The hung-compiler drill: block until the build is cancelled, the
		// wedge deadline propagation exists to bound. Without a deadline the
		// hang is unbounded, which is why chaos schedules only fire it under
		// EnableDisruptive.
		<-cfg.Ctx.Done()
		return nil, fmt.Errorf("hung worker cancelled: %w", cfg.Ctx.Err())
	}
	defer tr.StartFine(label, lane+1).End()
	if !cached {
		return b.compute(s, lane, i)
	}
	start := time.Now()
	key := cache.Key{Stage: s.cache, Input: s.key(b, i), Config: keyCfg, Schema: artifact.SchemaVersion}
	tr.Add("cache/key_hash_ns", time.Since(start).Nanoseconds())
	sp := tr.StartSpan("cache "+s.cache+" "+name, lane+1)
	return runStage(cfg.Ctx, b.bc, tr, key, sp,
		func(data []byte) (any, error) { return s.decode(b, i, data, sp) },
		func() (any, error) { return b.compute(s, lane, i) },
		s.encode)
}

// compute runs task i of s and verifies its result, so an artifact that fails
// the verifier is never published.
func (b *build) compute(s *stage, lane, i int) (any, error) {
	v, err := s.task(b, lane, i)
	if err == nil {
		err = b.verified(s, v)
	}
	return v, err
}

// verified runs the machine verifier over what s produced when cfg.Verify is
// set, recording its pass counts on the build's counters (surfaced by
// -summary).
func (b *build) verified(s *stage, v any) error {
	if !b.cfg.Verify || s.verify == nil {
		return nil
	}
	rep := verify.Program(s.verify(b, v))
	b.cfg.Tracer.Add("verify/functions", int64(rep.FuncsChecked))
	b.cfg.Tracer.Add("verify/violations", int64(len(rep.Violations)))
	return rep.Err()
}

// keyConfig renders a cached stage's projection of the build's Config as the
// stage's Key.Config: each non-zero field in declaration order as Name=value,
// a profile standing for its content digest and a fault schedule for its
// String. Any other pointer or interface has no canonical rendering, so a
// projection that keeps one is a bug.
func keyConfig(p Config) string {
	v := reflect.ValueOf(p)
	var sb strings.Builder
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		val := f.Interface()
		switch x := val.(type) {
		case bool, int, int64, string:
		case *profile.Profile:
			val = x.Digest()
		case *fault.Injector:
			val = x.String()
		default:
			panic("pipeline: Config." + v.Type().Field(i).Name + " has no cache-key rendering")
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%s=%#v", v.Type().Field(i).Name, val)
	}
	return sb.String()
}

// gatherKeepGoing folds a keep-going stage's error slice (one slot per task)
// into a single *BuildErrors, nil when every task succeeded. Recovered worker
// panics and the failure count land on the build's counters.
func gatherKeepGoing(tr *obs.Tracer, errs []error) error {
	var be BuildErrors
	for _, e := range errs {
		if e != nil {
			be.Errs = append(be.Errs, e)
		}
	}
	if len(be.Errs) == 0 {
		return nil
	}
	notePanics(tr, be.Errs...)
	tr.Add("build/keep_going_errors", int64(len(be.Errs)))
	return &be
}

// notePanics counts the errors whose chain carries a recovered worker panic,
// keeping panic isolation visible in -summary even when the build fails.
func notePanics(tr *obs.Tracer, errs ...error) {
	for _, e := range errs {
		var pe *par.PanicError
		if errors.As(e, &pe) {
			tr.Add("fault/recovered_panics", 1)
		}
	}
}
