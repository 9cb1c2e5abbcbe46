package main

import (
	"bytes"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
)

// buildBinary compiles one of the repo's commands into dir.
func buildBinary(t *testing.T, dir, pkg, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startExpd launches a real expd on a free port and waits for
// readiness. It returns the base URL and the running process.
func startExpd(t *testing.T, bin, cacheDir string, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil && len(data) > 0 {
			base := "http://" + strings.TrimSpace(string(data))
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return base, cmd
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("expd never became ready; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// listedFlags returns the flag names a binary's -h lists, in the
// sorted order the flag package prints them.
func listedFlags(bin string) []string {
	_, errOut, _ := runClient(bin, "-h")
	var names []string
	for _, line := range strings.Split(string(errOut), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ := strings.Cut(rest, " ")
			names = append(names, name)
		}
	}
	return names
}

func runClient(bin string, args ...string) ([]byte, []byte, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	return stdout.Bytes(), stderr.Bytes(), err
}

// TestServiceEndToEnd is the tentpole's acceptance test with real
// processes: a figures client against a healthy expd, against an expd
// SIGKILLed mid-run, and two clients racing on one server must all
// emit stdout byte-identical to the serverless baseline.
func TestServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real server and client processes")
	}
	binDir := t.TempDir()
	expd := buildBinary(t, binDir, "repro/cmd/expd", "expd")
	figures := buildBinary(t, binDir, "repro/cmd/figures", "figures")
	args := []string{"-fig", "5", "-scale", "unit"}

	baseline, _, err := runClient(figures, args...)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	t.Run("healthy-server", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, _ := startExpd(t, expd, cacheDir)
		out, errOut, err := runClient(figures, append(args, "-server", base)...)
		if err != nil {
			t.Fatalf("client run: %v\n%s", err, errOut)
		}
		if !bytes.Equal(out, baseline) {
			t.Fatal("healthy-server output differs from serverless baseline")
		}
		// The client must have been served remotely, not have quietly
		// computed everything itself.
		se := string(errOut)
		if !strings.Contains(se, "local-fallbacks=0") || strings.Contains(se, "remote-hits=0") {
			t.Fatalf("client did not run remotely:\n%s", se)
		}
	})

	t.Run("server-killed-mid-sweep", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, srv := startExpd(t, expd, cacheDir)
		// SIGKILL: no drain, no goodbye — the hard half of the
		// degradation ladder. Kill concurrently with the run so some
		// requests succeed and the rest fall back.
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(300 * time.Millisecond)
			srv.Process.Kill()
			srv.Wait()
		}()
		out, errOut, err := runClient(figures, append(args, "-server", base)...)
		<-done
		if err != nil {
			t.Fatalf("client run with killed server: %v\n%s", err, errOut)
		}
		if !bytes.Equal(out, baseline) {
			t.Fatal("killed-server output differs from serverless baseline")
		}
	})

	t.Run("two-clients-one-server", func(t *testing.T) {
		cacheDir := filepath.Join(t.TempDir(), "cache")
		base, _ := startExpd(t, expd, cacheDir)
		var wg sync.WaitGroup
		outs := make([][]byte, 2)
		errOuts := make([][]byte, 2)
		errs := make([]error, 2)
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[i], errOuts[i], errs[i] = runClient(figures, append(args, "-server", base)...)
			}()
		}
		wg.Wait()
		for i := range outs {
			if errs[i] != nil {
				t.Fatalf("racing client %d: %v\n%s", i, errs[i], errOuts[i])
			}
			if !bytes.Equal(outs[i], baseline) {
				t.Fatalf("racing client %d output differs from baseline", i)
			}
		}
	})
}

// TestCheckpointResumeEndToEnd is the crash-resume acceptance test
// with real processes: a figures sweep is SIGKILLed mid-run, then
// rerun with the same -checkpoint-dir. The rerun must complete, reuse
// the dead process's checkpoints (resumed-from-checkpoint on stderr),
// and emit stdout byte-identical to a checkpointless baseline.
func TestCheckpointResumeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real figure-sweep processes")
	}
	binDir := t.TempDir()
	figures := buildBinary(t, binDir, "repro/cmd/figures", "figures")
	args := []string{"-fig", "5", "-scale", "unit"}

	baseline, _, err := runClient(figures, args...)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	ckptArgs := append(args, "-checkpoint-dir", ckptDir, "-checkpoint-every", "30000")

	// SIGKILL mid-sweep: no drain, no deferred stats.
	victim := exec.Command(figures, ckptArgs...)
	var victimErr bytes.Buffer
	victim.Stderr = &victimErr
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	victim.Process.Kill()
	if err := victim.Wait(); err == nil {
		// The sweep outran the kill; the rerun below still proves
		// checkpoint reuse, just not the torn-process half.
		t.Log("sweep finished before the kill landed; resume still exercised")
	}
	entries, err := os.ReadDir(filepath.Join(ckptDir, "entries"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("killed run published no checkpoints (%v); victim stderr:\n%s", err, victimErr.String())
	}

	out, errOut, err := runClient(figures, ckptArgs...)
	if err != nil {
		t.Fatalf("rerun after kill -9: %v\n%s", err, errOut)
	}
	if !bytes.Equal(out, baseline) {
		t.Fatal("resumed output differs from checkpointless baseline")
	}
	se := string(errOut)
	if !strings.Contains(se, "resumed-from-checkpoint") && !strings.Contains(se, "warmups-resumed=") {
		t.Fatalf("rerun shows no checkpoint reuse:\n%s", se)
	}
	if strings.Contains(se, "warmups-resumed=0 midrun-resumed=0") {
		t.Fatalf("rerun resumed nothing from the killed process:\n%s", se)
	}
}

// TestExpdGracefulDrain: SIGTERM must drain and exit cleanly — zero
// exit status, and a cache with no temp file and no corrupt entry.
func TestExpdGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	binDir := t.TempDir()
	expd := buildBinary(t, binDir, "repro/cmd/expd", "expd")
	figures := buildBinary(t, binDir, "repro/cmd/figures", "figures")
	cacheDir := filepath.Join(t.TempDir(), "cache")
	base, srv := startExpd(t, expd, cacheDir)

	// Give the server some real work first so runners and the store
	// have been exercised.
	if _, errOut, err := runClient(figures, "-fig", "5", "-scale", "unit", "-server", base); err != nil {
		t.Fatalf("warmup client: %v\n%s", err, errOut)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("drained expd exited non-zero: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("expd never exited after SIGTERM")
	}
	if tmp, err := os.ReadDir(filepath.Join(cacheDir, "tmp")); err != nil || len(tmp) != 0 {
		t.Fatalf("drained expd left %d temp files (%v)", len(tmp), err)
	}
	st, err := store.Open(cacheDir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if valid, corrupt, err := st.Verify(); err != nil || valid == 0 || corrupt != 0 {
		t.Fatalf("drained expd's cache: %d valid, %d corrupt entries (%v)", valid, corrupt, err)
	}
}

// TestFlagValidationFailsFast: every binary rejects nonsensical
// -workers/-max-concurrent/-seed/-scale/-server/-threshold/
// -checkpoint-every/-cache-dir values with a non-zero exit and a message naming the problem, before
// any simulation starts — and lists exactly the flags it always had,
// so the shared bootstrap can neither add nor lose an option.
func TestFlagValidationFailsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the client binaries")
	}
	binDir := t.TempDir()
	common := []string{"cache-dir", "checkpoint-dir", "checkpoint-every", "scale", "seed", "server", "workers"}
	bins := map[string]struct {
		pkg   string
		flags []string // beyond common
	}{
		"figures": {"repro/cmd/figures", []string{"cpuprofile", "csv", "fig", "memprofile", "sweep", "sweep-cores", "sweep-groups", "threshold"}},
		"tables":  {"repro/cmd/tables", []string{"table"}},
		"report":  {"repro/cmd/report", []string{"cpuprofile", "memprofile", "out"}},
		"coopsim": {"repro/cmd/coopsim", []string{"compare", "cpuprofile", "group", "memprofile", "scheme", "threshold"}},
	}
	// A directory beneath a regular file cannot exist, even for root.
	plain := filepath.Join(t.TempDir(), "plain")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
		only []string // binaries the case applies to; nil = all
	}{
		{"workers-zero", []string{"-workers", "0"}, "-workers", nil},
		{"workers-negative", []string{"-workers", "-3"}, "-workers", nil},
		{"seed-zero", []string{"-seed", "0"}, "-seed", nil},
		{"bad-scale", []string{"-scale", "galactic"}, "unknown scale", nil},
		{"bad-server", []string{"-server", ":not a url:"}, "URL", nil},
		{"threshold-out-of-range", []string{"-threshold", "1.5"}, "-threshold", []string{"figures", "coopsim"}},
		{"ckpt-every-negative", []string{"-checkpoint-every", "-1"}, "-checkpoint-every", nil},
		{"ckpt-every-without-dir", []string{"-checkpoint-every", "1000"}, "-checkpoint-dir", nil},
		{"cache-dir-unusable", []string{"-cache-dir", filepath.Join(plain, "sub")}, "-cache-dir", nil},
		{"sweep-groups-negative", []string{"-sweep", "scaling", "-sweep-cores", "2", "-sweep-groups", "-3"}, "-sweep-groups", []string{"figures"}},
	}
	for name, b := range bins {
		bin := buildBinary(t, binDir, b.pkg, name)
		t.Run(name+"/flag-set", func(t *testing.T) {
			want := append(append([]string(nil), common...), b.flags...)
			sort.Strings(want)
			if got := listedFlags(bin); !slices.Equal(got, want) {
				t.Fatalf("%s -h lists %v, want %v", name, got, want)
			}
		})
		for _, tc := range cases {
			if tc.only != nil && !slices.Contains(tc.only, name) {
				continue
			}
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				args := tc.args
				if name == "report" {
					args = append(args, "-out", t.TempDir())
				}
				start := time.Now()
				_, errOut, err := runClient(bin, args...)
				if err == nil {
					t.Fatalf("%s %v exited zero", name, tc.args)
				}
				if !strings.Contains(string(errOut), tc.want) {
					t.Fatalf("%s %v stderr %q does not mention %q", name, tc.args, errOut, tc.want)
				}
				if took := time.Since(start); took > 10*time.Second {
					t.Fatalf("%s %v took %v; validation must fail fast", name, tc.args, took)
				}
			})
		}
	}
	// expd itself validates too. It has -max-concurrent and no
	// -workers: a request never fans out.
	expd := buildBinary(t, binDir, "repro/cmd/expd", "expd")
	t.Run("expd/flag-set", func(t *testing.T) {
		want := []string{"addr", "addr-file", "cache-dir", "checkpoint-dir", "checkpoint-every",
			"drain-timeout", "max-concurrent"}
		if got := listedFlags(expd); !slices.Equal(got, want) {
			t.Fatalf("expd -h lists %v, want %v", got, want)
		}
	})
	t.Run("expd/max-concurrent-zero", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-max-concurrent", "0")
		if err == nil {
			t.Fatal("expd -max-concurrent=0 exited zero")
		}
		if !strings.Contains(string(errOut), "-max-concurrent") {
			t.Fatalf("expd stderr %q does not mention -max-concurrent", errOut)
		}
	})
	t.Run("expd/bad-addr", func(t *testing.T) {
		_, _, err := runClient(expd, "-addr", "999.999.999.999:0")
		if err == nil {
			t.Fatal("expd with bogus -addr exited zero")
		}
	})
	t.Run("expd/ckpt-every-negative", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-checkpoint-every", "-1")
		if err == nil {
			t.Fatal("expd -checkpoint-every=-1 exited zero")
		}
		if !strings.Contains(string(errOut), "-checkpoint-every") {
			t.Fatalf("expd stderr %q does not mention -checkpoint-every", errOut)
		}
	})
	t.Run("expd/ckpt-every-without-dir", func(t *testing.T) {
		_, errOut, err := runClient(expd, "-checkpoint-every", "1000")
		if err == nil {
			t.Fatal("expd -checkpoint-every without -checkpoint-dir exited zero")
		}
		if !strings.Contains(string(errOut), "-checkpoint-dir") {
			t.Fatalf("expd stderr %q does not mention -checkpoint-dir", errOut)
		}
	})
}

// TestThresholdZeroFlag: -threshold 0 runs at T=0, not at the paper's
// default T=0.05 that a zero experiments.Config.Threshold selects.
func TestThresholdZeroFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs coopsim")
	}
	coopsim := buildBinary(t, t.TempDir(), "repro/cmd/coopsim", "coopsim")
	run := func(threshold string) []byte {
		out, errOut, err := runClient(coopsim, "-scale", "unit", "-group", "G2-8",
			"-scheme", "CoopPart", "-threshold", threshold)
		if err != nil {
			t.Fatalf("coopsim -threshold %s: %v\n%s", threshold, err, errOut)
		}
		return out
	}
	if bytes.Equal(run("0"), run("0.05")) {
		t.Fatal("coopsim -threshold 0 printed the -threshold 0.05 run")
	}
}
