package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"outliner/internal/profile"
)

// TestClientRequestDefaults pins the request JSON a client posts, and the
// daemon-side knobs serve mode reads from the same flags.
func TestClientRequestDefaults(t *testing.T) {
	dir := t.TempDir()
	src, prof := filepath.Join(dir, "hello.sl"), filepath.Join(dir, "p.json")
	if err := os.WriteFile(src, []byte("func main() {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := profile.New().WriteFile(prof); err != nil {
		t.Fatal(err)
	}
	const module = `{"modules":[{"name":"hello","files":{"hello.sl":"func main() {}\n"}}],`
	for _, c := range []struct {
		args     []string
		want     string
		cacheDir string
		jobs     int
	}{
		{nil, module + `"config":{"whole_program":false,"outline_rounds":5,"merge_functions":true,"fmsa":false,` +
			`"flat_outline_cost":false,"verify":true,"keep_going":false}}`, "", 0},
		{[]string{"-rounds", "2", "-verify=false", "-layout", "c3", "-profile-in", prof, "-cache-dir", "d", "-j", "3"},
			module + `"config":{"whole_program":false,"outline_rounds":2,"merge_functions":true,"fmsa":false,` +
				`"flat_outline_cost":false,"verify":false,"keep_going":false,"layout":"c3",` +
				`"profile":"ewogICJzY2hlbWEiOiAxLAogICJmdW5jdGlvbnMiOiB7fQp9Cg=="}}`, "d", 3},
	} {
		fs := flag.NewFlagSet("slcd", flag.ContinueOnError)
		build := buildFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		cfg, err := build.Config()
		if err != nil {
			t.Fatal(err)
		}
		req, err := buildRequest(clientOpts{build: cfg, files: []string{src}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("slcd -mode client %v:\n got %s\nwant %s", c.args, got, c.want)
		}
		if cfg.CacheDir != c.cacheDir || cfg.Parallelism != c.jobs {
			t.Errorf("slcd -mode serve %v: cache-dir %q, j %d", c.args, cfg.CacheDir, cfg.Parallelism)
		}
	}
}
