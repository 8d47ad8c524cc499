package slcd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"outliner/internal/outline"
	"outliner/internal/pipeline"
	"outliner/internal/slcd"
)

// TestListingSurvivesTheWire: the listing a client decodes from POST /build is
// the text WriteImageListing streams for an in-process build of the same
// request, including a module name the MIR printer has to quote and the
// reply writer has to escape: a quote, a backslash, HTML's <&>, multi-byte
// runes and U+2028, which symbol names carry raw.
func TestListingSurvivesTheWire(t *testing.T) {
	const awkward = "Ri\"der<&>\\é世\u2028"
	app := soakApp(t, 6)
	app[1].Name = awkward

	hs := httptest.NewServer(slcd.NewServer(slcd.Options{CacheDir: t.TempDir(), Parallelism: 1}).Handler())
	defer hs.Close()
	body, err := json.Marshal(&slcd.BuildRequest{Modules: app, Config: slcd.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(hs.URL+"/build", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp slcd.BuildResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("build failed (%s): %s", resp.ErrorClass, resp.Error)
	}

	// The pipeline.Config slcd lowers DefaultConfig() to.
	d := slcd.DefaultConfig()
	srcs := make([]pipeline.Source, len(app))
	for i, m := range app {
		srcs[i] = pipeline.Source{Name: m.Name, Files: m.Files}
	}
	res, err := pipeline.Build(srcs, pipeline.Config{
		OutlineRounds: d.OutlineRounds, MergeFunctions: d.MergeFunctions, Verify: d.Verify,
		SILOutline: true, SpecializeClosures: true, PreserveDataLayout: true, SplitGCMetadata: true,
		OnVerifyFailure: outline.VerifyAbort, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.WriteImageListing(&want); err != nil {
		t.Fatal(err)
	}
	if resp.Listing != want.String() {
		t.Errorf("the daemon's listing (%d bytes) differs from the in-process listing (%d bytes)", len(resp.Listing), want.Len())
	}
	if quoted := `module "Ri\"der<&>\\` + "é世" + `\u2028"`; !strings.Contains(resp.Listing, quoted) {
		t.Errorf("listing does not name the module as %s", quoted)
	}
	if resp.CodeSize != res.CodeSize() || resp.TotalSize != res.BinarySize() {
		t.Errorf("daemon sizes %d/%d, in-process %d/%d", resp.CodeSize, resp.TotalSize, res.CodeSize(), res.BinarySize())
	}
}

// lyingBody is a request body whose reader is not an in-memory type, so the
// HTTP client cannot correct the Content-Length the test declares.
type lyingBody struct{ io.Reader }

// TestRequestBodyLengthIsOnlyAHint: a declared Content-Length sizes the read
// buffer, but the body read is the body sent — whether the length is absent,
// right, too small, too large, or past the request bound.
func TestRequestBodyLengthIsOnlyAHint(t *testing.T) {
	handler := slcd.NewServer(slcd.Options{Parallelism: 1}).Handler()
	body, err := json.Marshal(tinyBuildRequest())
	if err != nil {
		t.Fatal(err)
	}
	post := func(declared int64, payload io.Reader) (int, string) {
		req := httptest.NewRequest(http.MethodPost, "/build", lyingBody{payload})
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	var listing string
	for _, declared := range []int64{-1, 0, int64(len(body)), int64(len(body)) - 40, int64(len(body)) + 4096, 1 << 20, 64<<20 + 1} {
		code, reply := post(declared, bytes.NewReader(body))
		var resp slcd.BuildResponse
		if err := json.Unmarshal([]byte(reply), &resp); code != http.StatusOK || err != nil || !resp.OK {
			t.Fatalf("Content-Length %d on a %d-byte body: status %d, %q", declared, len(body), code, reply)
		}
		if listing == "" {
			listing = resp.Listing
		}
		if resp.Listing != listing {
			t.Errorf("Content-Length %d changed the listing", declared)
		}
	}

}

func tinyBuildRequest() *slcd.BuildRequest {
	return &slcd.BuildRequest{
		Modules: []slcd.ModuleSource{
			{Name: "m", Files: map[string]string{"m.sl": "func main() -> Int { return 0 }"}},
			{Name: "m2", Files: map[string]string{"m2.sl": "func two() -> Int { return 2 }"}},
		},
		Config: slcd.DefaultConfig(),
	}
}
