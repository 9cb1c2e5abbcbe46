package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
)

// maxRequestBytes bounds a request body; a RunRequest is a few KB.
const maxRequestBytes = 1 << 20

// ServerOptions parameterise NewServer. The zero value is production
// defaults.
type ServerOptions struct {
	// Workers is each runner's simulation fan-out bound (DynCPE
	// profile gathering); GOMAXPROCS if zero. Cross-request
	// parallelism comes from concurrent HTTP requests, bounded by
	// MaxConcurrent.
	Workers int
	// MaxConcurrent bounds simultaneously executing run requests (the
	// rest queue); GOMAXPROCS if zero.
	MaxConcurrent int
	// Store is the shared persistent result cache (nil = per-process
	// memory only). Every runner the server builds publishes into it,
	// and its cross-process lockfiles are what serialise the server
	// against other processes on the same directory.
	Store *store.Store
	// Checkpoints is the shared checkpoint manager (nil gets each
	// runner a storeless one). Checkpoint keys carry the fingerprint of
	// the whole RunConfig, so one manager serves every runner the
	// server builds without aliasing runs.
	Checkpoints *ckpt.Manager
	// Logf receives request-level warnings; stderr if nil.
	Logf func(format string, args ...any)
}

// Server is the HTTP front-end over experiments.Runner. One Server
// hosts one runner per (scale fingerprint, seed) pair, created on
// first use, all sharing one Store — so any client, at any scale or
// seed, gets results deduplicated through the same memo and disk
// layers the binaries use locally. All methods are safe for
// concurrent use.
type Server struct {
	workers     int
	store       *store.Store
	checkpoints *ckpt.Manager
	logf        func(format string, args ...any)
	sem         chan struct{}

	mu      sync.Mutex
	runners map[string]*experiments.Runner

	draining  atomic.Bool
	requests  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	inFlight  atomic.Int64
}

// NewServer builds a Server.
func NewServer(opts ServerOptions) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return &Server{
		workers:     opts.Workers,
		store:       opts.Store,
		checkpoints: opts.Checkpoints,
		logf:        logf,
		sem:         make(chan struct{}, opts.MaxConcurrent),
		runners:     make(map[string]*experiments.Runner),
	}
}

// runner returns (building on first use) the memoising runner for one
// (scale, seed) identity. The map key is the scale *fingerprint*, so
// two scales differing in any field get distinct runners even when
// they share a name.
func (s *Server) runner(sc sim.Scale, seed uint64) *experiments.Runner {
	key := store.Fingerprint(sc) + "|" + strconv.FormatUint(seed, 10)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runners[key]
	if !ok {
		r = experiments.NewRunner(experiments.Config{
			Scale: sc, Seed: seed, Workers: s.workers, Store: s.store,
			Checkpoints: s.checkpoints,
		})
		s.runners[key] = r
	}
	return r
}

// BeginDrain flips the server into shutdown mode: /readyz and /v1/run
// answer 503 from now on, while requests already executing complete
// and return their results (http.Server.Shutdown provides the wait).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Progress is the server's observability snapshot: what /v1/progress
// serves, one line per tick when streaming.
type Progress struct {
	Requests           uint64       `json:"requests"`
	RunsCompleted      uint64       `json:"runs_completed"`
	RunsFailed         uint64       `json:"runs_failed"`
	InFlight           int64        `json:"in_flight"`
	SimulationsStarted uint64       `json:"simulations_started"`
	Runners            int          `json:"runners"`
	Draining           bool         `json:"draining"`
	Store              *store.Stats `json:"store,omitempty"`
}

// Snapshot collects the current progress counters.
func (s *Server) Snapshot() Progress {
	p := Progress{
		Requests:      s.requests.Load(),
		RunsCompleted: s.completed.Load(),
		RunsFailed:    s.failed.Load(),
		InFlight:      s.inFlight.Load(),
		Draining:      s.draining.Load(),
	}
	s.mu.Lock()
	p.Runners = len(s.runners)
	for _, r := range s.runners {
		p.SimulationsStarted += r.Simulations()
	}
	s.mu.Unlock()
	if s.store != nil {
		st := s.store.Stats()
		p.Store = &st
	}
	return p
}

// Handler returns the server's HTTP surface:
//
//	POST /v1/run      — execute/fetch one fully keyed run
//	GET  /v1/progress — progress snapshot; ?stream=1 for ndjson ticks
//	GET  /healthz     — liveness (200 while the process serves)
//	GET  /readyz      — readiness (503 once draining)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/progress", s.handleProgress)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		http.Error(w, "reading request: "+err.Error(), http.StatusBadRequest)
		return
	}
	var req RunRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "decoding request: "+err.Error(), http.StatusBadRequest)
		return
	}
	runner := s.runner(req.Scale, req.Seed)

	// Recompute the canonical key from the request fields; the client
	// computed the same string from its own runner. A mismatch means
	// the two sides disagree about what this run *is* (version or
	// config skew) and must never be papered over with a result.
	var want string
	switch req.Kind {
	case KindRun:
		want = runner.RunKey(req.Group, req.Scheme, req.Threshold, req.Variant)
	case KindAlone:
		want = runner.AloneKey(req.Benchmark, req.Cores)
	case KindProfile:
		want = runner.ProfileKey(req.Benchmark, req.Cores)
	default:
		http.Error(w, fmt.Sprintf("unknown kind %q", req.Kind), http.StatusBadRequest)
		return
	}
	if want != req.Key {
		http.Error(w, fmt.Sprintf("key mismatch: client %q, server %q", req.Key, want),
			http.StatusConflict)
		return
	}

	// Bound concurrent simulation work; queued requests still honour
	// cancellation and drain.
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		http.Error(w, "client gone", http.StatusServiceUnavailable)
		return
	}
	s.inFlight.Add(1)
	defer func() {
		s.inFlight.Add(-1)
		<-s.sem
	}()

	// A client that gave up while queued costs no simulation; a run
	// that has started completes and is published normally.
	var value any
	if err = r.Context().Err(); err == nil {
		switch req.Kind {
		case KindRun:
			value, err = runner.RunGroupVariant(req.Group, req.Scheme, req.Threshold, req.Variant)
		case KindAlone:
			value, err = runner.AloneResults(req.Benchmark, req.Cores)
		case KindProfile:
			value, err = runner.Profile(req.Benchmark, req.Cores)
		}
	}
	if err != nil {
		s.failed.Add(1)
		s.logf("service: %s %s: %v", req.Kind, req.Key, err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := encodeResponse(req.Key, value)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-coopserve")
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	w.Write(resp)
	s.completed.Add(1)
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	enc := json.NewEncoder(w)
	if r.URL.Query().Get("stream") == "" {
		w.Header().Set("Content-Type", "application/json")
		enc.Encode(s.Snapshot())
		return
	}
	interval := 500 * time.Millisecond
	if ms, err := strconv.Atoi(r.URL.Query().Get("interval")); err == nil && ms > 0 {
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := enc.Encode(s.Snapshot()); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
