package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden")

// TestFlagsGolden pins hydra-bench's flag list — every name, default
// and help string — as -h prints it.
func TestFlagsGolden(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "usage")
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = out
	code := run([]string{"-h"})
	os.Stderr = stderr
	if code != 0 {
		t.Fatalf("run -h = %d, want 0", code)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/flags.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", golden, err)
	}
	if string(got) != string(want) {
		t.Errorf("hydra-bench -h diverged from %s\ngot:\n%s", golden, got)
	}
}

func TestValidateModes(t *testing.T) {
	cases := []struct {
		name     string
		selected []string
		wantErr  string // substring; empty means valid
	}{
		{"none", nil, "no mode selected"},
		{"one inproc", []string{"throughput"}, ""},
		{"many inproc", []string{"table1", "throughput", "storm", "atoms"}, ""},
		{"fleet alone", []string{"fleet"}, ""},
		{"soak alone", []string{"soak"}, ""},
		{"fleet+soak", []string{"fleet", "soak"}, "mutually exclusive"},
		{"fleet+throughput", []string{"throughput", "fleet"}, "cannot be combined"},
		{"soak+table1", []string{"table1", "soak"}, "cannot be combined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var selected []mode
			for _, name := range c.selected {
				selected = append(selected, mode{name: name, standalone: name == "fleet" || name == "soak"})
			}
			err := validateModes(selected)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateModes(%v) = %v, want nil", c.selected, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validateModes(%v) = %v, want error containing %q", c.selected, err, c.wantErr)
			}
		})
	}
}

// TestAllSelectsInProcessModes: -all selects exactly the eight in-process
// modes, in the order they run, and neither process-tree mode.
func TestAllSelectsInProcessModes(t *testing.T) {
	selected, _, _, err := parseFlags([]string{"-all"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range selected {
		got = append(got, m.name)
	}
	want := []string{"table1", "fig12a", "fig12b", "throughput", "storm", "chaos", "symcheck", "atoms"}
	if !slices.Equal(got, want) {
		t.Fatalf("-all selected %v, want %v", got, want)
	}
}

// TestRunFailureKeepsProfile: a mode that fails still returns through
// run, so the deferred profile writer runs — the profile of a failing
// run is not left empty.
func TestRunFailureKeepsProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-throughput", "-packets", "-1", "-cpuprofile", prof}); code == 0 {
		t.Fatal("run -throughput -packets -1 returned 0")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after a failed run: %v, want a non-empty file", err)
	}
}

// TestRunRejectsBenchJSON: the flag left with the guard that read it.
func TestRunRejectsBenchJSON(t *testing.T) {
	if code := run([]string{"-table1", "-benchjson", "x"}); code != 2 {
		t.Fatalf("run -table1 -benchjson x = %d, want 2 (unknown flag)", code)
	}
}
