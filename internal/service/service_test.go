package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestMain gives every client in these tests a 10 s deadline per
// attempt and no backoff waits, so a fault schedule resolves in
// milliseconds.
func TestMain(m *testing.M) {
	requestTimeout = 10 * time.Second
	sleepFn = func(time.Duration) {}
	os.Exit(m.Run())
}

// quietf is a Logf that routes warnings to the test log.
func quietf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf("service: "+format, args...) }
}

// newTestServer starts an in-process expd over httptest and returns
// its base URL plus the Server for drain/progress assertions.
func newTestServer(t *testing.T) (string, *Server, *httptest.Server) {
	t.Helper()
	srv := NewServer(ServerOptions{Logf: quietf(t)})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return hs.URL, srv, hs
}

// newTestClient builds a client over transport tr (the default
// transport if nil) that logs to the test log.
func newTestClient(t *testing.T, base string, tr http.RoundTripper) *Client {
	t.Helper()
	c, err := NewClient(base, ClientOptions{Transport: tr, Logf: quietf(t)})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustGroup(t *testing.T, name string) workload.Group {
	t.Helper()
	g, err := workload.FindGroup(name)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustJSON compares by canonical JSON: the same representation the
// store and the wire use, so "byte-identical" means what it does in
// production.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestClientURLValidation(t *testing.T) {
	for _, bad := range []string{"not a url", "ftp://host", "http://"} {
		if _, err := NewClient(bad, ClientOptions{}); err == nil {
			t.Errorf("NewClient(%q): expected error", bad)
		}
	}
}

// TestRemoteMatchesLocal: a healthy server serves results that are
// JSON-byte-identical to a purely local computation, and the client's
// runner performs zero simulations itself.
func TestRemoteMatchesLocal(t *testing.T) {
	base, _, _ := newTestServer(t)
	cl := newTestClient(t, base, nil)
	sc := sim.UnitScale()
	g := mustGroup(t, "G2-1")

	local := experiments.NewRunner(experiments.Config{Scale: sc})
	want, err := local.RunGroupVariant(g, sim.CoopPart, experiments.DefaultThreshold,
		core.VariantNone)
	if err != nil {
		t.Fatal(err)
	}

	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
	got, err := remote.RunGroupVariant(g, sim.CoopPart, experiments.DefaultThreshold,
		core.VariantNone)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("remote result differs from local computation")
	}
	if n := remote.Simulations(); n != 0 {
		t.Fatalf("client-side runner simulated %d times; the server should have", n)
	}
	st := cl.Stats()
	if st.RemoteHits == 0 || st.LocalFallbacks != 0 || st.Degraded {
		t.Fatalf("unexpected client stats: %v", st)
	}

	// Solo runs and profiles ride the same exchange.
	wantAlone, err := local.AloneResults(g.Benchmarks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	gotAlone, err := remote.AloneResults(g.Benchmarks[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, gotAlone) != mustJSON(t, wantAlone) {
		t.Fatal("remote alone result differs from local computation")
	}
	if n := remote.Simulations(); n != 0 {
		t.Fatalf("client-side runner simulated %d times for alone run", n)
	}
}

// TestEveryFaultScheduleConverges is the proof obligation of the fault
// seam: for every injected fault kind, a sweep through a faulty
// transport still ends in results byte-identical to the serverless
// baseline — via retry when the fault is transient, via local
// fallback when the server is effectively gone. Never an error.
func TestEveryFaultScheduleConverges(t *testing.T) {
	restore := requestTimeout
	requestTimeout = 100 * time.Millisecond // undercuts the 1s delay fault
	defer func() { requestTimeout = restore }()

	sc := sim.UnitScale()
	g := mustGroup(t, "G2-1")
	baseline := experiments.NewRunner(experiments.Config{Scale: sc})
	want, err := baseline.RunGroupVariant(g, sim.UCP, experiments.DefaultThreshold,
		core.VariantNone)
	if err != nil {
		t.Fatal(err)
	}

	schedules := []struct {
		name   string
		config func(tr *FaultTripper)
	}{
		{"clean", func(tr *FaultTripper) {}},
		{"drop-first", func(tr *FaultTripper) { tr.FailCall(1, FaultDrop) }},
		{"5xx-first", func(tr *FaultTripper) { tr.FailCall(1, Fault5xx) }},
		{"truncate-first", func(tr *FaultTripper) { tr.FailCall(1, FaultTruncate) }},
		{"corrupt-first", func(tr *FaultTripper) { tr.FailCall(1, FaultCorrupt) }},
		{"delay-first", func(tr *FaultTripper) { tr.Delay = time.Second; tr.FailCall(1, FaultDelay) }},
		{"double-drop", func(tr *FaultTripper) { tr.FailCall(1, FaultDrop); tr.FailCall(2, FaultDrop) }},
		{"mixed", func(tr *FaultTripper) { tr.FailCall(1, Fault5xx); tr.FailCall(2, FaultCorrupt) }},
		{"dead-server", func(tr *FaultTripper) { tr.FailFrom(1, FaultDrop) }},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			base, _, _ := newTestServer(t)
			tr := &FaultTripper{}
			sched.config(tr)
			cl := newTestClient(t, base, tr)
			remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
			got, err := remote.RunGroupVariant(g, sim.UCP, experiments.DefaultThreshold,
				core.VariantNone)
			if err != nil {
				t.Fatalf("fault schedule surfaced an error: %v", err)
			}
			if mustJSON(t, got) != mustJSON(t, want) {
				t.Fatal("result under faults differs from baseline")
			}
			st := cl.Stats()
			if st.RemoteHits+st.LocalFallbacks == 0 {
				t.Fatalf("request accounted to neither remote nor fallback: %v", st)
			}
			if tr.Fired() == 0 && sched.name != "clean" {
				t.Fatal("fault schedule never fired")
			}
		})
	}
}

// TestDeadServerDegradesOnce: with every round trip failing, the
// client crosses maxFailures — two requests of maxAttempts tries each
// — warns, disables itself, and stops touching the network, while the
// sweep completes locally with baseline-identical results.
func TestDeadServerDegradesOnce(t *testing.T) {
	sc := sim.UnitScale()
	baseline := experiments.NewRunner(experiments.Config{Scale: sc})
	tr := &FaultTripper{}
	tr.FailFrom(1, FaultDrop)
	cl := newTestClient(t, "http://127.0.0.1:9", tr)
	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})

	for _, name := range []string{"G2-1", "G2-2", "G2-3", "G2-4"} {
		g := mustGroup(t, name)
		want, err := baseline.RunGroup(g, sim.FairShare)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.RunGroup(g, sim.FairShare)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mustJSON(t, got) != mustJSON(t, want) {
			t.Fatalf("%s: degraded result differs from baseline", name)
		}
	}
	if !cl.Stats().Degraded {
		t.Fatal("client never degraded against a dead server")
	}
	calls := tr.Calls()
	if calls != maxFailures {
		t.Fatalf("client degraded after %d transport calls, want %d", calls, maxFailures)
	}
	// Further work must not touch the transport at all.
	g := mustGroup(t, "G2-5")
	if _, err := remote.RunGroup(g, sim.FairShare); err != nil {
		t.Fatal(err)
	}
	if tr.Calls() != calls {
		t.Fatalf("degraded client still issued transport calls (%d -> %d)", calls, tr.Calls())
	}
}

// TestKeyMismatchIsPermanent: a 409 (the two sides disagree what a key
// means) must not be retried — it degrades the client immediately.
func TestKeyMismatchIsPermanent(t *testing.T) {
	base, _, _ := newTestServer(t)
	tr := &FaultTripper{}
	cl := newTestClient(t, base, tr)
	g := mustGroup(t, "G2-1")
	_, ok := cl.RemoteRun("run|bogus-key", sim.UnitScale(), 1, g,
		sim.CoopPart, experiments.DefaultThreshold, core.VariantNone, sim.FidelityExact)
	if ok {
		t.Fatal("key mismatch returned a result")
	}
	if !cl.Stats().Degraded {
		t.Fatal("key mismatch did not degrade the client")
	}
	if tr.Calls() != 1 {
		t.Fatalf("permanent failure was retried: %d calls", tr.Calls())
	}
}

// TestServerRejectsGarbage: malformed bodies, unknown kinds, wrong
// methods, and a correctly keyed run the simulator must refuse.
func TestServerRejectsGarbage(t *testing.T) {
	base, _, _ := newTestServer(t)
	hc := &http.Client{Timeout: 10 * time.Second}
	post := func(body string) int {
		resp, err := hc.Post(base+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", code)
	}
	if code := post(`{"kind":"teleport"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d", code)
	}
	// T = 2 is outside [0, 1]. The key matches, so the request reaches
	// the simulator; both posts must get an error answer, not a dropped
	// connection or a wait on a run that never finishes.
	sc, g := sim.UnitScale(), mustGroup(t, "G2-8")
	key := experiments.NewRunner(experiments.Config{Scale: sc, Seed: 1}).
		RunKey(g, sim.CoopPart, 2, core.VariantNone)
	bad := mustJSON(t, RunRequest{Kind: KindRun, Key: key, Scale: sc, Seed: 1,
		Group: g, Scheme: sim.CoopPart, Threshold: 2})
	for i := 0; i < 2; i++ {
		if code := post(bad); code != http.StatusInternalServerError {
			t.Fatalf("threshold 2, post %d: %d", i+1, code)
		}
	}
	resp, err := http.Get(base + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: %d", resp.StatusCode)
	}
}

// TestBadScaleDoesNotWedgeServer: a Scale that passes Validate must
// build, because a panic inside a run leaves its singleflight entry
// open forever. Three identical requests for an LLC with 2-byte lines
// (the trace generator refuses lines under 4 bytes) each get an error
// answer, and a healthy request sent after them still completes
// within the client's deadline instead of queueing behind requests
// that never finish.
func TestBadScaleDoesNotWedgeServer(t *testing.T) {
	srv := NewServer(ServerOptions{MaxConcurrent: 2, Logf: quietf(t)})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		// Close waits for every handler, which a wedged server never
		// lets finish.
		if !t.Failed() {
			hs.Close()
		}
	})
	post := func(req RunRequest, deadline time.Duration) (int, error) {
		hc := &http.Client{Timeout: deadline}
		resp, err := hc.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(mustJSON(t, req)))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	request := func(sc sim.Scale, scheme sim.SchemeKind) RunRequest {
		g := mustGroup(t, "G2-8")
		key := experiments.NewRunner(experiments.Config{Scale: sc, Seed: 1}).
			RunKey(g, scheme, experiments.DefaultThreshold, core.VariantNone)
		return RunRequest{Kind: KindRun, Key: key, Scale: sc, Seed: 1,
			Group: g, Scheme: scheme, Threshold: experiments.DefaultThreshold}
	}
	bad := sim.UnitScale()
	bad.L2TwoCore.LineBytes = 2
	for i := 0; i < 3; i++ {
		code, err := post(request(bad, sim.FairShare), 5*time.Second)
		if err != nil || code != http.StatusInternalServerError {
			t.Errorf("bad scale, post %d: status %d, error %v; want a 500 answer", i+1, code, err)
		}
	}
	code, err := post(request(sim.UnitScale(), sim.FairShare), 30*time.Second)
	if err != nil || code != http.StatusOK {
		t.Fatalf("healthy request after bad ones: status %d, error %v", code, err)
	}
}

// panicFS is a store filesystem that panics when the store opens one
// entry for reading: a stand-in for any panic inside a run.
type panicFS struct {
	store.OSFS
	entry string // file name of the entry: hex SHA-256 of its key
}

func (f panicFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	if flag == os.O_RDONLY && filepath.Base(path) == f.entry {
		panic("injected panic opening " + f.entry)
	}
	return f.OSFS.OpenFile(path, flag, perm)
}

// TestPanickingRunDoesNotWedgeServer: a run that panics must release
// its singleflight entry. Three identical requests whose lookup panics
// are all answered — the first by net/http's recovery dropping the
// connection, the other two with the memoised error as a 500 — and a
// healthy request sent after them still completes within its client
// deadline instead of queueing behind handlers that never finish.
func TestPanickingRunDoesNotWedgeServer(t *testing.T) {
	request := func(scheme sim.SchemeKind) RunRequest {
		g := mustGroup(t, "G2-8")
		key := experiments.NewRunner(experiments.Config{Scale: sim.UnitScale(), Seed: 1}).
			RunKey(g, scheme, experiments.DefaultThreshold, core.VariantNone)
		return RunRequest{Kind: KindRun, Key: key, Scale: sim.UnitScale(), Seed: 1,
			Group: g, Scheme: scheme, Threshold: experiments.DefaultThreshold}
	}
	bad := request(sim.UCP)
	sum := sha256.Sum256([]byte(bad.Key))
	st, err := store.Open(t.TempDir(), store.Options{
		FS:   panicFS{entry: hex.EncodeToString(sum[:]) + ".entry"},
		Logf: quietf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerOptions{MaxConcurrent: 2, Store: st, Logf: quietf(t)})
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ErrorLog = log.New(io.Discard, "", 0) // the recovered panic's stack
	hs.Start()
	t.Cleanup(func() {
		// Close waits for every handler, which a wedged server never
		// lets finish.
		if !t.Failed() {
			hs.Close()
		}
	})
	post := func(req RunRequest, deadline time.Duration) (int, error) {
		hc := &http.Client{Timeout: deadline}
		resp, err := hc.Post(hs.URL+"/v1/run", "application/json", strings.NewReader(mustJSON(t, req)))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	if code, err := post(bad, 5*time.Second); err == nil || os.IsTimeout(err) {
		t.Errorf("panicking post 1: status %d, error %v; want the connection dropped", code, err)
	}
	for i := 2; i <= 3; i++ {
		code, err := post(bad, 5*time.Second)
		if err != nil || code != http.StatusInternalServerError {
			t.Errorf("panicking post %d: status %d, error %v; want a 500 answer", i, code, err)
		}
	}
	code, err := post(request(sim.FairShare), 30*time.Second)
	if err != nil || code != http.StatusOK {
		t.Fatalf("healthy request after panicking ones: status %d, error %v", code, err)
	}
}

// TestDrainSemantics: draining flips /readyz and /v1/run to 503 while
// /healthz stays 200 — and the client treats the 503 as one more
// transient on the road to local fallback, not an error.
func TestDrainSemantics(t *testing.T) {
	base, srv, _ := newTestServer(t)
	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d", code)
	}
	srv.BeginDrain()
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", code)
	}

	cl := newTestClient(t, base, nil)
	sc := sim.UnitScale()
	remote := experiments.NewRunner(experiments.Config{Scale: sc, Remote: cl})
	local := experiments.NewRunner(experiments.Config{Scale: sc})
	g := mustGroup(t, "G2-1")
	want, err := local.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.RunGroup(g, sim.Unmanaged)
	if err != nil {
		t.Fatalf("run against draining server errored: %v", err)
	}
	if mustJSON(t, got) != mustJSON(t, want) {
		t.Fatal("fallback result differs from baseline")
	}
	if cl.Stats().LocalFallbacks == 0 {
		t.Fatal("draining server did not register a local fallback")
	}
	if n := srv.Snapshot().Requests; n != maxAttempts {
		t.Fatalf("draining server saw %d run requests, want %d tries", n, maxAttempts)
	}
}

// TestProgressEndpoint: the snapshot counts requests and runs.
func TestProgressEndpoint(t *testing.T) {
	base, srv, _ := newTestServer(t)
	cl := newTestClient(t, base, nil)
	g := mustGroup(t, "G2-1")
	remote := experiments.NewRunner(experiments.Config{Scale: sim.UnitScale(), Remote: cl})
	if _, err := remote.RunGroup(g, sim.Unmanaged); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(base + "/v1/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p Progress
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Requests == 0 || p.RunsCompleted == 0 || p.SimulationsStarted == 0 || p.Runners == 0 {
		t.Fatalf("implausible progress: %+v", p)
	}
	if got := srv.Snapshot(); got.RunsCompleted != p.RunsCompleted {
		t.Fatalf("snapshot disagrees with endpoint: %+v vs %+v", got, p)
	}
}

// TestEnvelopeVerification pins the wire format's self-checks.
func TestEnvelopeVerification(t *testing.T) {
	payload := map[string]int{"x": 42}
	enc, err := encodeResponse("k1", payload)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := decodeResponse("k1", enc, &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != 42 {
		t.Fatalf("round trip lost the payload: %v", out)
	}
	if err := decodeResponse("other", enc, &out); err == nil {
		t.Fatal("key mismatch not detected")
	}
	if err := decodeResponse("k1", enc[:len(enc)-3], &out); err == nil {
		t.Fatal("truncation not detected")
	}
	flipped := append([]byte(nil), enc...)
	flipped[len(flipped)-1] ^= 1
	if err := decodeResponse("k1", flipped, &out); err == nil {
		t.Fatal("corruption not detected")
	}
	if err := decodeResponse("k1", []byte("junk\n{}"), &out); err == nil {
		t.Fatal("garbage envelope not detected")
	}
}

// BenchmarkServiceRoundTrip measures one warm remote lookup end to end
// (HTTP + envelope + verification, result already memoised
// server-side) — the per-request overhead DESIGN.md §13 quotes.
func BenchmarkServiceRoundTrip(b *testing.B) {
	srv := NewServer(ServerOptions{Logf: func(string, ...any) {}})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl, err := NewClient(hs.URL, ClientOptions{Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.FindGroup("G2-1")
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.UnitScale()
	local := experiments.NewRunner(experiments.Config{Scale: sc})
	key := local.RunKey(g, sim.CoopPart, experiments.DefaultThreshold,
		core.VariantNone)
	if _, ok := cl.RemoteRun(key, sc, 1, g, sim.CoopPart,
		experiments.DefaultThreshold, core.VariantNone, sim.FidelityExact); !ok {
		b.Fatal("warmup request failed")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cl.RemoteRun(key, sc, 1, g, sim.CoopPart,
			experiments.DefaultThreshold, core.VariantNone, sim.FidelityExact); !ok {
			b.Fatal("warm request failed")
		}
	}
}

// TestResponseBytesPinned pins the bytes of one response frame, so a
// client of one build reads a server of the next, in both directions.
func TestResponseBytesPinned(t *testing.T) {
	enc, err := encodeResponse("k1", map[string]int{"x": 42})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	const want = "4b8f36183b9adc42582dee70a462490f21b1a07be5c6ed300b3760b8a3e9d070"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("response bytes changed: sha256 %s, want %s\n%s", got, want, enc)
	}
}
