package pipeline

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"outliner/internal/profile"
)

// codeOnlyFields are the Config fields no build flag sets: presets such as
// OSize and Default, and library callers, set them in code.
var codeOnlyFields = map[string]bool{
	"SILOutline": true, "SpecializeClosures": true, "MergeFunctions": true, "FMSA": true,
	"PreserveDataLayout": true, "SplitGCMetadata": true,
}

// parseFlags registers every row over base, parses args and resolves them.
func parseFlags(t *testing.T, base Config, args ...string) (Config, *Flags) {
	t.Helper()
	var names []string
	for name := range flagTable {
		names = append(names, name)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := NewFlags(fs, base, names...)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if f.cancel != nil {
		t.Cleanup(f.cancel)
	}
	return cfg, f
}

// TestFlagTableCoversConfig fails when a Config field is neither set by a row
// nor listed as code-only, or when a row names a field Config lacks.
func TestFlagTableCoversConfig(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	byRow := map[string]bool{}
	for name, r := range flagTable {
		if _, ok := typ.FieldByName(r.field); !ok {
			t.Errorf("-%s sets Config.%s, which does not exist", name, r.field)
		}
		byRow[r.field] = true
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch {
		case byRow[name] && codeOnlyFields[name]:
			t.Errorf("Config.%s has a flag row but is listed as code-only", name)
		case !byRow[name] && !codeOnlyFields[name]:
			t.Errorf("Config.%s has no flag row: add one to flagTable or list it in codeOnlyFields", name)
		}
	}
}

// TestNoFlagsReturnsTheBase: a flag's default is the base Config's value.
func TestNoFlagsReturnsTheBase(t *testing.T) {
	for name, base := range map[string]Config{"OSize": OSize, "Default": Default, "zero": {}} {
		if got, _ := parseFlags(t, base); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: parsing no flags gave %+v", name, got)
		}
	}
}

// TestEachFlagSetsOnlyItsField sets every row's flag to a value other than
// its OSize default and checks that exactly the expected field moved. A case
// whose flag acts only together with another flag carries that one in with,
// on both sides of the comparison.
func TestEachFlagSetsOnlyItsField(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "p.json")
	if err := profile.New().WriteFile(prof); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		flag, value, field string
		with               []string
	}{
		{"rounds", "7", "OutlineRounds", nil},
		{"whole-program", "false", "WholeProgram", nil},
		{"flat-cost", "true", "FlatOutlineCost", nil},
		{"verify", "true", "Verify", nil},
		{"j", "3", "Parallelism", nil},
		{"cache-dir", dir, "CacheDir", nil},
		{"keep-going", "true", "KeepGoing", nil},
		{"on-verify-failure", "rollback-round", "OnVerifyFailure", nil},
		{"outline-cold-threshold", "4", "OutlineColdThreshold", nil},
		{"layout", "c3", "Layout", nil},
		{"profile-in", prof + "," + prof, "Profile", nil},
		{"fault-rate", "0.5", "Fault", nil},
		{"fault-seed", "3", "Fault", []string{"-fault-rate=0.5"}},
		{"deadline", "1h", "Ctx", nil},
		{"trace", filepath.Join(dir, "t.json"), "Tracer", nil},
		{"remarks", filepath.Join(dir, "r.jsonl"), "Tracer", nil},
		{"summary", "true", "Tracer", nil},
		{"counters", filepath.Join(dir, "c.json"), "Tracer", nil},
	}
	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.flag] = true
		if r := flagTable[c.flag]; r.field != c.field {
			t.Errorf("-%s: the table says it sets Config.%s, want %s", c.flag, r.field, c.field)
		}
		before, _ := parseFlags(t, OSize, c.with...)
		after, _ := parseFlags(t, OSize, append(c.with, "-"+c.flag+"="+c.value)...)
		var moved []string
		b, a := reflect.ValueOf(before), reflect.ValueOf(after)
		for i := 0; i < b.NumField(); i++ {
			if !reflect.DeepEqual(b.Field(i).Interface(), a.Field(i).Interface()) {
				moved = append(moved, b.Type().Field(i).Name)
			}
		}
		if len(moved) != 1 || moved[0] != c.field {
			t.Errorf("-%s=%s moved Config fields %v, want only %s", c.flag, c.value, moved, c.field)
		}
	}
	for name := range flagTable {
		if !covered[name] {
			t.Errorf("-%s has no case here", name)
		}
	}
}

// TestFinishWritesOutputsOfAFailedBuild: the trace, remarks and counters
// files are written when the build failed too, and the build's error wins.
func TestFinishWritesOutputsOfAFailedBuild(t *testing.T) {
	dir := t.TempDir()
	trace, remarks, counters := filepath.Join(dir, "t.json"), filepath.Join(dir, "r.jsonl"), filepath.Join(dir, "c.json")
	cfg, f := parseFlags(t, OSize, "-trace", trace, "-remarks", remarks, "-counters", counters)
	if !cfg.Tracer.FineEnabled() {
		t.Error("-trace did not turn on fine spans")
	}
	cfg.Tracer.Add("build/keep_going_errors", 2)
	buildErr := errors.New("build failed")
	if err := f.Finish(buildErr); err != buildErr {
		t.Fatalf("Finish returned %v, want the build's error", err)
	}
	var tr struct{ TraceEvents []any }
	var cs map[string]int64
	for path, v := range map[string]any{trace: &tr, counters: &cs} {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if cs["build/keep_going_errors"] != 2 {
		t.Errorf("counters file holds %v", cs)
	}
	if _, err := os.Stat(remarks); err != nil {
		t.Error(err)
	}
}
