package pipeline_test

import (
	"bytes"
	"errors"
	"io"
	"runtime/debug"
	"strings"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/pipeline"
	"outliner/internal/raceflag"
)

func buildApp(t *testing.T, modules int, cfg pipeline.Config) *pipeline.Result {
	t.Helper()
	res, err := appgen.BuildApp(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, modules), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// hiccupWriter accepts failAt bytes, fails the one Write that crosses that
// offset, and accepts every Write after it — the writer a listing printer that
// checks only its last write gets past.
type hiccupWriter struct {
	failAt int
	taken  int
	failed bool
	late   int // bytes written after the failure
}

var errHiccup = errors.New("no space left on device")

func (w *hiccupWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.late += len(p)
		return len(p), nil
	}
	if w.taken+len(p) > w.failAt {
		w.failed = true
		return 0, errHiccup
	}
	w.taken += len(p)
	return len(p), nil
}

// TestImageListingReportsWriteErrors: a write that fails in any section of
// the listing — summary, symbol table, program — is the error
// WriteImageListing returns, and nothing is written after it.
func TestImageListingReportsWriteErrors(t *testing.T) {
	res := buildApp(t, 80, pipeline.Default)
	listing := res.ImageListing()
	symbols := strings.Index(listing, "\nsymbols:\n")
	program := strings.Index(listing, "\nprogram:\n")
	if symbols < 0 || program < symbols || program < 100<<10 {
		t.Fatalf("listing sections at %d and %d; the symbol table should span many chunks", symbols, program)
	}
	for _, c := range []struct {
		section string
		failAt  int
	}{
		{"summary", 0},
		{"symbols header", symbols + 2},
		{"first symbol rows", symbols + 200},
		{"symbol rows past the first chunk", (symbols + program) / 2},
		{"last symbol row", program - 1},
		{"program header", program + 2},
		{"program", (program + len(listing)) / 2},
		{"last byte", len(listing) - 1},
	} {
		w := &hiccupWriter{failAt: c.failAt}
		if err := res.WriteImageListing(w); !errors.Is(err, errHiccup) {
			t.Errorf("write failing in %s (offset %d): WriteImageListing returned %v", c.section, c.failAt, err)
		}
		if w.late != 0 {
			t.Errorf("write failing in %s: %d more bytes were written after the failure", c.section, w.late)
		}
	}
	w := &hiccupWriter{failAt: len(listing)}
	if err := res.WriteImageListing(w); err != nil || w.taken != len(listing) {
		t.Errorf("writer with room for the whole listing: %v after %d of %d bytes", err, w.taken, len(listing))
	}
}

// TestImageListingStringMatchesStream: ImageListing is the text
// WriteImageListing streams, whatever the size of the image.
func TestImageListingStringMatchesStream(t *testing.T) {
	for _, res := range []*pipeline.Result{
		buildApp(t, 24, pipeline.Default),
		buildApp(t, 6, pipeline.OSize),
	} {
		var buf bytes.Buffer
		if err := res.WriteImageListing(&buf); err != nil {
			t.Fatal(err)
		}
		if got := res.ImageListing(); got != buf.String() {
			t.Errorf("ImageListing() differs from WriteImageListing (%d vs %d bytes)", len(got), buf.Len())
		}
	}
}

// TestAllocBudgetImageListing: rendering a listing allocates the chunk and
// its bookkeeping, never per symbol or per instruction; and ImageListing adds
// a strings.Builder and the one buffer that becomes the string, sized well
// enough not to regrow.
func TestAllocBudgetImageListing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	res := buildApp(t, 80, pipeline.Default)
	// Each run builds a multi-megabyte string, so collections start inside
	// AllocsPerRun's window and what the runtime allocates for them is
	// counted against the listing code. The collector is paused for the two
	// measurements, and restored after.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stream := testing.AllocsPerRun(3, func() {
		if err := res.WriteImageListing(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	var listing string
	str := testing.AllocsPerRun(3, func() { listing = res.ImageListing() })
	t.Logf("%d symbols, %d instructions, %d listing bytes: %.0f allocations streamed, %.0f as a string",
		res.Image.SymCount, res.Prog.NumInsts(), len(listing), stream, str)
	if stream > 8 {
		t.Errorf("WriteImageListing allocates %.0f objects; budget 8", stream)
	}
	if str > stream+2 {
		t.Errorf("ImageListing allocates %.0f objects, %.0f more than streaming; its buffer should be sized once", str, str-stream)
	}
}
