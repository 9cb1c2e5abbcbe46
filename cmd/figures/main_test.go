package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
)

// buildFigures compiles the binary once per test run.
func buildFigures(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "figures")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func runFiguresErr(bin string, args ...string) ([]byte, []byte, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.Bytes(), stderr.Bytes(), err
}

func runFigures(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	out, errOut, err := runFiguresErr(bin, args...)
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, errOut)
	}
	return out
}

// TestCrossProcessCacheDeterminism is the end-to-end acceptance test
// for the persistent store: real processes sharing one -cache-dir —
// storeless, cold-cache, warm-cache, and two concurrent writers — all
// emit byte-identical figure tables.
func TestCrossProcessCacheDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary several times")
	}
	bin := buildFigures(t)
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{"-fig", "5", "-scale", "unit"}

	storeless := runFigures(t, bin, args...)
	cold := runFigures(t, bin, append(args, "-cache-dir", cacheDir)...)
	if !bytes.Equal(storeless, cold) {
		t.Fatal("cold-cache output differs from storeless output")
	}
	warm := runFigures(t, bin, append(args, "-cache-dir", cacheDir)...)
	if !bytes.Equal(storeless, warm) {
		t.Fatal("warm-cache output differs from storeless output")
	}
	if ents, err := os.ReadDir(filepath.Join(cacheDir, "entries")); err != nil || len(ents) == 0 {
		t.Fatalf("cache dir has no entries after cold run (err=%v)", err)
	}

	// Two processes racing on a fresh shared directory publish the
	// same keys without a lock: both must still match.
	raceDir := filepath.Join(t.TempDir(), "race")
	var wg sync.WaitGroup
	outs := make([][]byte, 2)
	errOuts := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errOuts[i], errs[i] = runFiguresErr(bin, append(args, "-cache-dir", raceDir)...)
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if errs[i] != nil {
			t.Fatalf("concurrent process %d: %v\n%s", i, errs[i], errOuts[i])
		}
		if !bytes.Equal(storeless, out) {
			t.Fatalf("concurrent process %d output differs from storeless output", i)
		}
	}
}
