package cache

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"strconv"
	"syscall"
	"time"

	"outliner/internal/fault"
)

// fatalErrnos end a retry loop immediately: the condition is environmental
// and a fourth attempt fails like the first.
var fatalErrnos = []syscall.Errno{
	syscall.ENOSPC, syscall.EROFS, syscall.EACCES, syscall.EPERM,
}

// fatal reports whether retrying err cannot help. An injected fault error is
// fatal unless its Transient bit is set, so chaos schedules exercise both
// retry outcomes; otherwise only fatalErrnos are. Every other error — the
// flaky-I/O shapes (EINTR, EAGAIN, EBUSY, EIO, ENFILE, EMFILE, ETIMEDOUT) and
// anything unrecognized — is transient, because one wasted retry is cheaper
// than misclassifying a recoverable blip as fatal. Damaged bytes never get
// here: they read fine, decodeEntry rejects them, and the entry is discarded.
func fatal(err error) bool {
	var fe *fault.Error
	if errors.As(err, &fe) {
		return !fe.Transient
	}
	for _, errno := range fatalErrnos {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// Retry policy: up to retryAttempts tries per disk or remote operation, sleeping
// retryBase·2^(attempt−1) capped at retryCap between tries. The backoff
// touches only the wall clock, never cache keys or artifact bytes, so
// retries cannot perturb build determinism.
const (
	retryAttempts = 4
	retryBase     = time.Millisecond
	retryCap      = 10 * time.Millisecond
)

// retry is the one attempt loop behind every disk and remote operation. It
// runs op(0), op(1), … until op succeeds, fails fatally, or the attempt
// budget runs out, and returns op's last error. Between attempts it stops
// with ctx's error once ctx is done — a cancelled build stops paying cache
// latency — and otherwise counts one pr.Retries and sleeps the capped backoff
// through sleep. An outcome that is an answer rather than a failure (a
// missing file, a 404, a rejected upload) is op's to record: it returns nil.
func retry(ctx context.Context, sleep func(time.Duration), pr *Probe, op func(attempt int) error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			pr.Retries++
			sleepVia(sleep, min(retryBase<<(attempt-1), retryCap))
		}
		if err = op(attempt); err == nil || fatal(err) {
			return err
		}
	}
	return err
}

// sleepVia sleeps d through an instance's injectable clock (nil: the wall
// clock), so tests run at full speed.
func sleepVia(sleep func(time.Duration), d time.Duration) {
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(d)
}

// attemptKey is an operation's fault-point key for one attempt. Each attempt
// re-rolls the fault schedule under its own key, so an injected transient
// blip on attempt 0 can heal on attempt 1 — the shape a retry loop exists for.
func attemptKey(id string, attempt int) string {
	return id + "#" + strconv.Itoa(attempt)
}

// Probe reports what a Get/Put survived, beyond hit/miss: the pipeline
// turns these into obs counters (cache/retries, cache/remove_failed,
// cache/io_errors) so degraded builds stay visible in -summary.
type Probe struct {
	Retries   int   // transient-I/O retries performed
	Corrupt   bool  // a damaged disk entry was detected and discarded
	RemoveErr error // deleting the damaged entry failed (entry left behind)
	IOErr     error // final I/O error the operation degraded over, if any
	RemoteErr error // remote-shard error the operation degraded over, if any
	// Tier names the tier that served a hit — "memory", "disk", or
	// "remote-shard-<n>" — and is empty on a miss (or a Put). The -summary
	// scoreboard uses it to attribute multi-tier hits.
	Tier string
}

// merge folds another operation's probe into p (the pipeline aggregates one
// probe across a get-then-put sequence).
func (p *Probe) Merge(q Probe) {
	p.Retries += q.Retries
	p.Corrupt = p.Corrupt || q.Corrupt
	if p.RemoveErr == nil {
		p.RemoveErr = q.RemoveErr
	}
	if p.IOErr == nil {
		p.IOErr = q.IOErr
	}
	if p.RemoteErr == nil {
		p.RemoteErr = q.RemoteErr
	}
	if p.Tier == "" {
		p.Tier = q.Tier
	}
}

// SetFault arms deterministic fault injection on this cache's disk I/O
// paths. Arm only private (Open) instances: a Shared cache would leak
// injected faults into unrelated builds in the same process.
func (c *Cache) SetFault(inj *fault.Injector) {
	if c != nil {
		c.fault = inj
	}
}

// removeEntry deletes a damaged entry file, via the injectable remover so
// tests can simulate an undeletable entry (chmod tricks don't work when the
// test runs as root).
func (c *Cache) removeEntry(path string) error {
	if c.remove != nil {
		return c.remove(path)
	}
	return os.Remove(path)
}

// readEntry reads the raw entry file under retry. A missing file is the
// ordinary miss (found false, no error), never retried.
func (c *Cache) readEntry(ctx context.Context, id, path string, pr *Probe) (raw []byte, found bool, err error) {
	err = retry(ctx, c.sleep, pr, func(attempt int) error {
		err := c.fault.MaybeError(fault.CacheRead, attemptKey(id, attempt))
		if err == nil {
			raw, err = os.ReadFile(path)
		}
		found = err == nil
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	})
	return raw, found, err
}

// writeEntry publishes an entry, given as the slices it is made of in order
// (frameEntry's, or a raw entry as one slice), under retry. Wherever a done
// ctx ends the loop, publish guarantees no torn entry.
func (c *Cache) writeEntry(ctx context.Context, id string, parts [][]byte, pr *Probe) error {
	return retry(ctx, c.sleep, pr, func(attempt int) error {
		if err := c.fault.MaybeError(fault.CacheWrite, attemptKey(id, attempt)); err != nil {
			return err
		}
		return publish(c.dir, c.entryPath(id), parts...)
	})
}

// publish writes parts, one after another, to path atomically: a temp file in
// dir, then a rename over path, so readers see either no entry or a complete
// one. A failed publish removes its temp file.
func publish(dir, path string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = tmp.Write(p); err != nil {
			break
		}
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
