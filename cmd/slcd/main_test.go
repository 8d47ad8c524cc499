package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"outliner/internal/profile"
)

// TestMain runs slcd's main instead of the tests when SLCD_TEST_MAIN is set,
// so a test can drive the command through its own binary.
func TestMain(m *testing.M) {
	if os.Getenv("SLCD_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Every flag README's serve-mode table documents is one slcd registers.
func TestDocumentedServeFlagsExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| Flag (serve mode) |")
	if !ok {
		t.Fatal("README has no serve-mode flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := regexp.MustCompile("(?m)^\\| `(-[a-z-]+)`").FindAllStringSubmatch(table, -1)
	if len(rows) == 0 {
		t.Fatal("README's serve-mode flag table has no flag rows")
	}

	cmd := exec.Command(os.Args[0], "-h")
	cmd.Env = append(os.Environ(), "SLCD_TEST_MAIN=1")
	var usage bytes.Buffer
	cmd.Stderr = &usage
	if err := cmd.Run(); err != nil {
		t.Fatalf("slcd -h: %v\n%s", err, usage.String())
	}
	for _, row := range rows {
		if !regexp.MustCompile("(?m)^  " + row[1] + "( |$)").Match(usage.Bytes()) {
			t.Errorf("README documents %s, which slcd does not register", row[1])
		}
	}
}

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
