package fault

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"
)

// goldenSchedule is the digest of every decision TestScheduleGolden makes. It
// was recorded before the per-kind point helpers became one Fires query; a
// change to it moves a fault decision, and with it every faulted cache key and
// chaos replay.
const goldenSchedule = "888e5a3c2c9ac9f47f90a29eabdcb5f535d9365425fe61ba8f19204080bd77a3"

// goldenPoints are the (site, kind) pairs the pipeline's call sites ask for.
var goldenPoints = []struct {
	site Site
	kind Kind
}{
	{WorkerTask, PanicKind}, {CodegenFunc, PanicKind},
	{WorkerHang, HangKind},
	{CacheRead, ErrorKind}, {CacheRead, CorruptKind},
	{RemoteGet, ErrorKind}, {RemoteGet, CorruptKind},
	{CacheWrite, ErrorKind}, {RemotePut, ErrorKind}, {ArtifactDecode, ErrorKind},
	{RemoteSlow, SlowKind},
	{OutlineRound, CorruptKind},
	{CancelStep, CancelKind},
}

// goldenCall asks inj about one point the way its call site does and renders
// the outcome: "-" for no fault, else the kind fired, with the transient bit
// for an error and the damaged bytes for a byte corruption. Sites that carry
// out their fault themselves (hang, slow, cancel, OutlineRound's structural
// corruption) ask Fires.
func goldenCall(inj *Injector, site Site, kind Kind, key string) (out string) {
	switch kind {
	case PanicKind:
		defer func() {
			if r := recover(); r != nil {
				out = fmt.Sprint(r)
			}
		}()
		inj.MaybePanic(site, key)
		return "-"
	case ErrorKind:
		if err := inj.MaybeError(site, key); err != nil {
			return err.Error()
		}
		return "-"
	case CorruptKind:
		if site == OutlineRound {
			break
		}
		// Empty data neither fires nor counts.
		if got := inj.MaybeCorrupt(site, key, nil); len(got) != 0 {
			return "corrupted empty data"
		}
		data := []byte("cached artifact " + key)
		if got := inj.MaybeCorrupt(site, key, data); !bytes.Equal(got, data) {
			return "corrupt " + hex.EncodeToString(got)
		}
		return "-"
	}
	if inj.Fires(site, key, kind) {
		return kind.String()
	}
	return "-"
}

// TestScheduleGolden pins the chaos schedule: for seeds 1–8, two rates, with
// and without the disruptive kinds, 500 keys at every (site, kind) a call site
// asks for, the kind fired, the transient bit and the per-site counts.
func TestScheduleGolden(t *testing.T) {
	h := sha256.New()
	for seed := uint64(1); seed <= 8; seed++ {
		for _, rate := range []float64{0.02, 0.3} {
			for _, disruptive := range []bool{false, true} {
				inj := New(seed, rate)
				if disruptive {
					inj.EnableDisruptive()
				}
				fmt.Fprintln(h, inj)
				for _, p := range goldenPoints {
					for i := 0; i < 500; i++ {
						fmt.Fprintln(h, goldenCall(inj, p.site, p.kind, fmt.Sprintf("key-%d#%d", i, i%4)))
					}
				}
				counts := inj.DrainCounters()
				names := make([]string, 0, len(counts))
				for name := range counts {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					fmt.Fprintf(h, "%s=%d\n", name, counts[name])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSchedule {
		t.Fatalf("fault schedule digest = %s, want %s", got, goldenSchedule)
	}
}
