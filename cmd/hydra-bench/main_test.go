package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestValidateModes(t *testing.T) {
	cases := []struct {
		name     string
		selected []string
		wantErr  string // substring; empty means valid
	}{
		{"none", nil, "no mode selected"},
		{"one inproc", []string{"engine"}, ""},
		{"many inproc", []string{"table1", "engine", "wire", "atoms"}, ""},
		{"fleet alone", []string{"fleet"}, ""},
		{"soak alone", []string{"soak"}, ""},
		{"fleet+soak", []string{"fleet", "soak"}, "mutually exclusive"},
		{"fleet+engine", []string{"engine", "fleet"}, "cannot be combined"},
		{"soak+table1", []string{"table1", "soak"}, "cannot be combined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateModes(c.selected)
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

// TestRunFailureKeepsProfile: a mode that fails still returns through
// run, so the deferred profile writer runs — the profile of a failing
// run is not left empty.
func TestRunFailureKeepsProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.prof")
	if code := run([]string{"-engine", "-shards", "x", "-cpuprofile", prof}); code == 0 {
		t.Fatal("run with a bad -shards value returned 0")
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile after a failed run: %v, want a non-empty file", err)
	}
}

// TestRunRejectsBenchJSON: the flag left with the guard that read it.
func TestRunRejectsBenchJSON(t *testing.T) {
	if code := run([]string{"-engine", "-benchjson", "x"}); code != 2 {
		t.Fatalf("run -engine -benchjson x = %d, want 2 (unknown flag)", code)
	}
}
