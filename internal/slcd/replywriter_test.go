package slcd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"

	"outliner/internal/appgen"
	"outliner/internal/raceflag"
)

// escapeIn returns what a stringEscaper writes for the writes ws, quoted.
func escapeIn(ws ...[]byte) string {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteByte('"')
	e := stringEscaper{w: bw}
	for _, p := range ws {
		e.Write(p)
	}
	e.flush()
	bw.WriteByte('"')
	bw.Flush()
	return buf.String()
}

// TestStringEscaperMatchesMarshal: for seeded random strings of ASCII,
// control characters, the characters JSON and HTML escape, multi-byte runes,
// U+2028/U+2029 and invalid bytes, the escaper writes json.Marshal's bytes
// however the string is cut into writes — in two at every offset, and in
// chunks of every size — so runes are cut at every byte of their encoding.
func TestStringEscaperMatchesMarshal(t *testing.T) {
	pieces := []string{
		"a", "Z", "0", " ", "~", "/", "\x7f",
		"\x00", "\x01", "\x1f", "\b", "\f", "\n", "\r", "\t",
		`"`, `\`, "<", "&", ">",
		"é", "世", "😀", "\ufffd", "\u2028", "\u2029", "\u2027", "\u202a",
		"\x80", "\xbf", "\xc3", "\xe4\xb8", "\xf0\x9f\x98", "\xff", "\xc0\xaf",
		"\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x80", "\xe2",
	}
	rng := rand.New(rand.NewSource(47))
	for n := 0; n < 400; n++ {
		var s []byte
		for k := rng.Intn(14); k >= 0; k-- {
			s = append(s, pieces[rng.Intn(len(pieces))]...)
		}
		want, err := json.Marshal(string(s))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= len(s); i++ {
			if got := escapeIn(s[:i], s[i:]); got != string(want) {
				t.Fatalf("%q cut at %d: wrote %s, json.Marshal %s", s, i, got, want)
			}
		}
		for size := 1; size <= len(s); size++ {
			var ws [][]byte
			for rest := s; len(rest) > 0; {
				m := min(size, len(rest))
				ws = append(ws, rest[:m], nil)
				rest = rest[m:]
			}
			if got := escapeIn(ws...); got != string(want) {
				t.Fatalf("%q in %d-byte writes: wrote %s, json.Marshal %s", s, size, got, want)
			}
		}
	}
}

// genApp generates an n-module UberRider app as request modules.
func genApp(n int) []ModuleSource {
	mods := appgen.Generate(appgen.UberRider, appgen.ScaleForModules(appgen.UberRider, n))
	out := make([]ModuleSource, len(mods))
	for i, m := range mods {
		out[i] = ModuleSource{Name: m.Name, Files: m.Files}
	}
	return out
}

// TestReplyMatchesEncoder: the handler's reply body is byte for byte what
// json.NewEncoder(...).Encode writes for the response BuildCtx returns for
// the same request on a like daemon — for a successful build, a failed one
// and a shed refusal. Counter values that time something (cache/key_hash_ns)
// cannot repeat across two builds, so the encoded response takes the reply's
// counter values, once both are shown to count the same things.
func TestReplyMatchesEncoder(t *testing.T) {
	app := genApp(6)
	app[1].Name = "Ri\"der<&>\\é世\u2028"
	broken := []ModuleSource{{Name: "m", Files: map[string]string{"m.sl": "func main( -> Int { return 0 }\n"}}}
	cases := []struct {
		name   string
		req    *BuildRequest
		shed   bool
		status int
		class  string // the response's ErrorClass; "" for a successful build
	}{
		{"success", &BuildRequest{Modules: app, Config: DefaultConfig()}, false, http.StatusOK, ""},
		{"build-error", &BuildRequest{Modules: broken, Config: DefaultConfig()}, false, http.StatusOK, "build"},
		{"shed", tinyRequest(), true, http.StatusServiceUnavailable, "shed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// daemon returns a fresh daemon; for the shed case, one whose
			// only build slot is taken and whose one queue place is filled.
			daemon := func() *Server {
				s := NewServer(Options{CacheDir: t.TempDir(), Parallelism: 1, MaxBuilds: 1, MaxQueue: 1})
				t.Cleanup(s.Close)
				if tc.shed {
					s.sem <- struct{}{}
					ctx, cancel := context.WithCancel(context.Background())
					done := make(chan struct{})
					go func() { s.BuildCtx(ctx, tinyRequest()); close(done) }()
					waitGauge(t, "queued", s.queued.Load, 1)
					t.Cleanup(func() { cancel(); <-done; <-s.sem })
				}
				return s
			}
			reqBody, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			daemon().Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/build", bytes.NewReader(reqBody)))
			body := rec.Body.Bytes()
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, body)
			}
			want := daemon().BuildCtx(context.Background(), tc.req)
			var got BuildResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.ErrorClass != tc.class || want.ErrorClass != tc.class || got.OK != (tc.class == "") {
				t.Fatalf("reply ok=%t class %q, BuildCtx class %q; want class %q (%s)", got.OK, got.ErrorClass, want.ErrorClass, tc.class, want.Error)
			}
			gk, wk := counterNames(got.Counters), counterNames(want.Counters)
			if !slices.Equal(gk, wk) {
				t.Fatalf("reply counters %v, BuildCtx counters %v", gk, wk)
			}
			want.Counters = got.Counters
			var enc bytes.Buffer
			json.NewEncoder(&enc).Encode(want)
			if !bytes.Equal(body, enc.Bytes()) {
				i := 0
				for i < min(len(body), enc.Len()) && body[i] == enc.Bytes()[i] {
					i++
				}
				t.Fatalf("reply (%d bytes) and encoder (%d bytes) differ at byte %d: %q vs %q",
					len(body), enc.Len(), i, body[i:min(i+40, len(body))], enc.Bytes()[i:min(i+40, enc.Len())])
			}
		})
	}
}

func counterNames(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

// discardReply is a ResponseWriter that drops the body.
type discardReply struct{ h http.Header }

func (d *discardReply) Header() http.Header         { return d.h }
func (d *discardReply) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardReply) WriteHeader(int)             {}

// TestAllocBudgetReply: the handler writes a warm build's reply without
// holding it. Beyond reading and decoding the request and the build itself,
// a 24-module reply for a 581 KB listing allocates the reply's 32 KiB buffer
// and the listing writer's 5 KiB chunk: 39–40 KB measured, and the budget is
// that plus 20 %. Encoding a response that held the listing as a string
// allocated 3.9 MB, beyond the string.
func TestAllocBudgetReply(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	s := NewServer(Options{CacheDir: t.TempDir(), Parallelism: 1})
	defer s.Close()
	body, err := json.Marshal(&BuildRequest{Modules: genApp(24), Config: DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/build", bytes.NewReader(body))
	}
	warm := s.Build(&BuildRequest{Modules: genApp(24), Config: DefaultConfig()})
	if !warm.OK {
		t.Fatalf("build failed (%s): %s", warm.ErrorClass, warm.Error)
	}
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const runs = 4
	var reply, build uint64
	for i := 0; i < runs; i++ {
		reply += measure(func() { s.handleBuild(&discardReply{h: http.Header{}}, post()) })
		build += measure(func() {
			data, err := readBody(post())
			req := BuildRequest{Config: DefaultConfig()}
			if err == nil {
				err = json.Unmarshal(data, &req)
			}
			if err != nil {
				t.Fatal(err)
			}
			if resp, _ := s.build(context.Background(), &req); !resp.OK {
				t.Fatalf("build failed (%s): %s", resp.ErrorClass, resp.Error)
			}
		})
	}
	extra := (int64(reply) - int64(build)) / runs
	const budget = 48_000
	t.Logf("reply: %d bytes beyond the build for a %d-byte listing", extra, len(warm.Listing))
	if extra >= budget {
		t.Errorf("a %d-byte listing's reply allocates %d bytes beyond the build; budget %d", len(warm.Listing), extra, budget)
	}
}
