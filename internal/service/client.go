package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/workload"
)

// maxResponseBytes bounds a response body read (a Results payload is
// tens of KB; profiles with long timelines stay well under this).
const maxResponseBytes = 64 << 20

// sleepFn is swapped by tests to observe the backoff schedule without
// waiting it out.
var sleepFn = time.Sleep

// ClientOptions parameterise NewClient. The zero value is production
// defaults.
type ClientOptions struct {
	// Transport is the fault-injection seam (FaultTripper in tests);
	// http.DefaultTransport if nil.
	Transport http.RoundTripper
	// RequestTimeout is the per-attempt deadline. It bounds how long a
	// hung server can stall one lookup; the default is generous (5m)
	// because a cold server may be simulating the answer.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per request (first + retries); 3 if 0.
	MaxAttempts int
	// BackoffBase/BackoffMax bound the exponential retry backoff
	// (full jitter); 50ms doubling to 2s if zero.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxFailures is how many consecutive failed attempts disable the
	// remote layer for the rest of the process (the degradation
	// ladder's last rung, mirroring store.Options.MaxFaults); 6 if 0.
	MaxFailures int
	// Logf receives the client's once-per-condition warnings; stderr
	// if nil. The client never logs on the success path.
	Logf func(format string, args ...any)
}

// ClientStats are the client's observability counters.
type ClientStats struct {
	RemoteHits     uint64
	LocalFallbacks uint64
	Retries        uint64
	Degraded       bool
}

func (s ClientStats) String() string {
	return fmt.Sprintf("remote-hits=%d local-fallbacks=%d retries=%d degraded=%v",
		s.RemoteHits, s.LocalFallbacks, s.Retries, s.Degraded)
}

// Client is the experiments.Remote implementation backed by an expd
// server. All methods are safe for concurrent use and can never fail
// their caller: every transport fault is absorbed by retry (bounded
// exponential backoff with jitter — requests are idempotent pure
// lookups, keyed by the same runKey identity the disk store uses) and
// then by the degradation ladder (MaxFailures consecutive failed
// attempts ⇒ warn once, answer ok=false forever ⇒ the runner computes
// locally). A server that dies mid-sweep costs bounded retry time on
// at most a few requests, then zero.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions

	consecutive atomic.Int64
	degraded    atomic.Bool
	hits        atomic.Uint64
	fallbacks   atomic.Uint64
	retries     atomic.Uint64

	warnMu sync.Mutex
	warned map[string]bool
}

// NewClient builds a client for the expd server at baseURL
// (e.g. "http://host:9190"). Unlike a dead server — a runtime fault
// the ladder absorbs — a malformed URL is a configuration error and
// fails fast.
func NewClient(baseURL string, opts ClientOptions) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("service: bad server URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("service: server URL %q must be http(s)", baseURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("service: server URL %q has no host", baseURL)
	}
	if opts.RequestTimeout == 0 {
		opts.RequestTimeout = 5 * time.Minute
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 6
	}
	if opts.Logf == nil {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	transport := opts.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	return &Client{
		base:   strings.TrimRight(u.String(), "/"),
		hc:     &http.Client{Transport: transport},
		opts:   opts,
		warned: make(map[string]bool),
	}, nil
}

// OpenCLI builds the client named by a binary's -server flag. An empty
// URL means "compute locally" and returns nil, which every consumer
// accepts (a nil *Client is never installed as an experiments.Remote).
// A malformed URL is returned as an error for the binary to fail fast
// on — it is user input, not a runtime fault.
func OpenCLI(serverURL, prog string) (*Client, error) {
	if serverURL == "" {
		return nil, nil
	}
	return NewClient(serverURL, ClientOptions{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, prog+": "+format+"\n", args...)
		},
	})
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		RemoteHits:     c.hits.Load(),
		LocalFallbacks: c.fallbacks.Load(),
		Retries:        c.retries.Load(),
		Degraded:       c.degraded.Load(),
	}
}

// ReportStats prints the client's counters to stderr (stderr so stdout
// stays byte-identical with and without a server). Safe on a nil
// receiver so binaries can call it unconditionally at exit.
func (c *Client) ReportStats(prog string) {
	if c == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: service: %s\n", prog, c.Stats())
}

// Degraded reports whether the ladder has disabled the remote layer.
func (c *Client) Degraded() bool { return c != nil && c.degraded.Load() }

func (c *Client) warnOnce(class, format string, args ...any) {
	c.warnMu.Lock()
	seen := c.warned[class]
	c.warned[class] = true
	c.warnMu.Unlock()
	if !seen {
		c.opts.Logf(format, args...)
	}
}

// RemoteRun implements experiments.Remote for group runs.
func (c *Client) RemoteRun(key string, sc sim.Scale, seed uint64, g workload.Group,
	scheme sim.SchemeKind, threshold float64, v experiments.Variant, _ sim.Fidelity) (*sim.Results, bool) {
	var res sim.Results
	if !c.exchange(RunRequest{
		Kind: KindRun, Key: key, Scale: sc, Seed: seed,
		Group: g, Scheme: scheme, Threshold: threshold, Variant: v,
	}, &res) {
		return nil, false
	}
	return &res, true
}

// RemoteAlone implements experiments.Remote for solo runs.
func (c *Client) RemoteAlone(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, _ sim.Fidelity) (*sim.Results, bool) {
	var res sim.Results
	if !c.exchange(RunRequest{
		Kind: KindAlone, Key: key, Scale: sc, Seed: seed,
		Benchmark: benchmark, Cores: cores,
	}, &res) {
		return nil, false
	}
	return &res, true
}

// RemoteProfile implements experiments.Remote for DynCPE profiles.
func (c *Client) RemoteProfile(key string, sc sim.Scale, seed uint64,
	benchmark string, cores int, _ sim.Fidelity) (partition.CoreProfile, bool) {
	var p partition.CoreProfile
	if !c.exchange(RunRequest{
		Kind: KindProfile, Key: key, Scale: sc, Seed: seed,
		Benchmark: benchmark, Cores: cores,
	}, &p) {
		return partition.CoreProfile{}, false
	}
	return p, true
}

// exchange runs one request through the retry/degradation ladder and
// reports whether value now holds a verified remote result. false
// means "compute locally"; it is never an error.
func (c *Client) exchange(req RunRequest, value any) bool {
	if c == nil || c.degraded.Load() {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		// Unencodable request: a programming error, not a transport
		// fault. Warn once and compute locally.
		c.warnOnce("encode", "service: encoding request: %v — computing locally", err)
		c.fallbacks.Add(1)
		return false
	}
	for attempt := 0; attempt < c.opts.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			sleepFn(c.backoff(attempt))
		}
		err, permanent := c.attempt(req.Key, body, value)
		if err == nil {
			c.consecutive.Store(0)
			c.hits.Add(1)
			return true
		}
		if permanent {
			// 4xx: the server understood us and said no (version or
			// config skew). Retrying cannot help and neither can any
			// later request — degrade the whole client.
			if !c.degraded.Swap(true) {
				c.warnOnce("permanent", "service: server rejected request (%v) — computing locally from here on", err)
			}
			c.fallbacks.Add(1)
			return false
		}
		c.warnOnce("fault", "service: transport fault: %v — retrying, then computing locally", err)
		if n := c.consecutive.Add(1); n >= int64(c.opts.MaxFailures) {
			if !c.degraded.Swap(true) {
				c.warnOnce("degraded", "service: %d consecutive transport failures — server disabled, computing locally from here on", n)
			}
			c.fallbacks.Add(1)
			return false
		}
	}
	c.fallbacks.Add(1)
	return false
}

// attempt performs one HTTP exchange. It returns the failure (nil on
// success) and whether it is permanent (4xx — retry cannot help) as
// opposed to transient (transport error, 5xx, torn or corrupt body).
func (c *Client) attempt(key string, body []byte, value any) (err error, permanent bool) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.RequestTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return err, true
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return err, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return err, false
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// Verified envelope or bust: any torn/corrupt body surfaces
		// here and is retried like a dropped connection.
		return decodeResponse(key, data, value), false
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return fmt.Errorf("service: server says %s: %s",
			resp.Status, strings.TrimSpace(string(data))), true
	default:
		return fmt.Errorf("service: server says %s: %s",
			resp.Status, strings.TrimSpace(string(data))), false
	}
}

// backoff returns the sleep before retry n (1-based): exponential with
// full jitter, bounded by BackoffMax.
func (c *Client) backoff(n int) time.Duration {
	d := c.opts.BackoffBase << (n - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}
