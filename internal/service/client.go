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

// The retry ladder's bounds. A request gets maxAttempts tries (first
// plus retries), with exponential backoff and full jitter between them
// from backoffBase doubling to backoffMax; maxFailures consecutive
// failed attempts disable the remote layer for the rest of the process
// (the ladder's last rung, mirroring the store's).
const (
	maxAttempts = 3
	backoffBase = 50 * time.Millisecond
	backoffMax  = 2 * time.Second
	maxFailures = 6
)

// requestTimeout is the per-attempt deadline. It bounds how long a
// hung server can stall one lookup, and is generous because a cold
// server may be simulating the answer. Tests shorten it and swap
// sleepFn to skip the backoff waits.
var (
	requestTimeout = 5 * time.Minute
	sleepFn        = time.Sleep
)

// ClientOptions parameterise NewClient. The zero value is production
// defaults.
type ClientOptions struct {
	// Transport is the fault-injection seam (FaultTripper in tests);
	// http.DefaultTransport if nil.
	Transport http.RoundTripper
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
// then by the degradation ladder (maxFailures consecutive failed
// attempts ⇒ warn once, answer ok=false forever ⇒ the runner computes
// locally). A server that dies mid-sweep costs bounded retry time on
// at most a few requests, then zero.
type Client struct {
	base string
	hc   *http.Client
	logf func(format string, args ...any)

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
	logf := opts.Logf
	if logf == nil {
		logf = func(format string, args ...any) {
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
		logf:   logf,
		warned: make(map[string]bool),
	}, nil
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

func (c *Client) warnOnce(class, format string, args ...any) {
	c.warnMu.Lock()
	seen := c.warned[class]
	c.warned[class] = true
	c.warnMu.Unlock()
	if !seen {
		c.logf(format, args...)
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
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			sleepFn(backoff(attempt))
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
		if n := c.consecutive.Add(1); n >= maxFailures {
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
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
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
// full jitter, bounded by backoffMax.
func backoff(n int) time.Duration {
	d := backoffBase << (n - 1)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}
