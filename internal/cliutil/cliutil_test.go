package cliutil

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestScale(t *testing.T) {
	cases := []struct {
		name    string
		wantErr string
	}{
		{"unit", ""},
		{"test", ""},
		{"full", ""},
		{"", `unknown scale ""`},
		{"Test", `unknown scale "Test"`},
		{"huge", `unknown scale "huge"`},
	}
	for _, tc := range cases {
		sc, err := Scale(tc.name)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("Scale(%q): unexpected error %v", tc.name, err)
			} else if sc.Name == "" {
				t.Errorf("Scale(%q): unnamed scale %+v", tc.name, sc)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Scale(%q): error %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestWorkers(t *testing.T) {
	if n := DefaultWorkers(); n < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", n)
	}
	cases := []struct {
		n  int
		ok bool
	}{
		{1, true},
		{8, true},
		{DefaultWorkers(), true},
		{0, false},
		{-1, false},
		{-100, false},
	}
	for _, tc := range cases {
		got, err := Workers(tc.n)
		if tc.ok != (err == nil) {
			t.Errorf("Workers(%d): err=%v, want ok=%v", tc.n, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.n {
			t.Errorf("Workers(%d) = %d, want identity", tc.n, got)
		}
		if !tc.ok && !strings.Contains(err.Error(), "-workers") {
			t.Errorf("Workers(%d): error %q does not name the flag", tc.n, err)
		}
	}
}

// TestProbeWritableFailsFast pins the startup contract of the
// persistence flags: a directory that cannot exist — here a path
// beneath a regular file, which fails ENOTDIR even for root — is a
// flag error at parse time, not a silent degradation at cycle 0.
func TestProbeWritableFailsFast(t *testing.T) {
	if err := ProbeWritable("", "-cache-dir"); err != nil {
		t.Fatalf("unset flag must pass, got %v", err)
	}

	good := t.TempDir() + "/fresh/nested"
	if err := ProbeWritable(good, "-cache-dir"); err != nil {
		t.Fatalf("creatable directory rejected: %v", err)
	}

	file := t.TempDir() + "/plain"
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := file + "/sub"
	err := ProbeWritable(bad, "-checkpoint-dir")
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-dir") {
		t.Fatalf("path beneath a regular file: error %v, want naming the flag", err)
	}
	if err := (&Persistence{prog: "test", ckptDir: bad}).Open(); err == nil {
		t.Fatal("Open accepted an unusable -checkpoint-dir")
	}
	if err := (&Persistence{prog: "test", CacheDir: bad}).Open(); err == nil {
		t.Fatal("Open accepted an unusable -cache-dir")
	}
}

func TestSeed(t *testing.T) {
	if got, err := Seed(7); err != nil || got != 7 {
		t.Errorf("Seed(7) = %d, %v; want identity", got, err)
	}
	if _, err := Seed(0); err == nil || !strings.Contains(err.Error(), "-seed") {
		t.Errorf("Seed(0): error %v, want one naming -seed", err)
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		t  float64
		ok bool
	}{
		{0, true},
		{0.3, true},
		{1, true},
		{-0.01, false},
		{1.01, false},
		{math.NaN(), false},
	}
	for _, tc := range cases {
		got, err := Threshold(tc.t)
		if tc.ok != (err == nil) {
			t.Errorf("Threshold(%v): err=%v, want ok=%v", tc.t, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.t {
			t.Errorf("Threshold(%v) = %v, want identity", tc.t, got)
		}
	}
}
