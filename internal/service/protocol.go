// Package service is the distributed experiment service (DESIGN.md
// §13): an HTTP front-end over experiments.Runner so sweeps can be
// sharded across machines and many clients can share one warm result
// cache. The Server (cmd/expd) accepts fully keyed run requests,
// deduplicates in-flight work through the runner's singleflight memo
// and the internal/store disk layer, and returns memoised sim.Results;
// the Client implements experiments.Remote so every binary opts in
// with -server=URL.
//
// Robustness is the contract, mirroring internal/store's: a dead,
// slow or corrupting server can only cost local recomputation, never
// an error, an unbounded stall or a byte of output difference. The
// client enforces it with per-request deadlines, bounded exponential
// backoff with jitter, idempotent retries (requests are pure lookups
// keyed by the same runKey identity the store uses), checksummed
// response envelopes, and a degradation ladder that falls back to
// local computation after consecutive transport failures. The proof
// layer is FaultTripper, the network analogue of store.FaultFS.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ProtocolVersion is the wire format. Client and server verify it on
// every exchange; a mismatch is a permanent (non-retried) failure that
// degrades the client to local computation.
const ProtocolVersion = 1

// Request kinds, matching the runner's three memo spaces.
const (
	KindRun     = "run"
	KindAlone   = "alone"
	KindProfile = "profile"
)

// RunRequest is the serialized form of one fully keyed experiment
// lookup. Scale is the complete sim.Scale struct, not a name, so a
// server never silently serves a differently-parameterised scale; Key
// is the canonical store key the client's runner computed, which the
// server recomputes from the other fields and verifies — config or
// version skew surfaces as an explicit mismatch, never a wrong result.
type RunRequest struct {
	Kind      string              `json:"kind"`
	Key       string              `json:"key"`
	Scale     sim.Scale           `json:"scale"`
	Seed      uint64              `json:"seed"`
	Group     workload.Group      `json:"group,omitempty"`     // KindRun
	Scheme    sim.SchemeKind      `json:"scheme,omitempty"`    // KindRun
	Threshold float64             `json:"threshold,omitempty"` // KindRun
	Variant   experiments.Variant `json:"variant,omitempty"`   // KindRun
	Benchmark string              `json:"benchmark,omitempty"` // KindAlone/KindProfile
	Cores     int                 `json:"cores,omitempty"`     // KindAlone/KindProfile
}

// envelope is the first line of a successful response body: a JSON
// header whose Len and SHA256 pin the result payload that follows it,
// so truncation and corruption anywhere on the wire are detected and
// retried instead of decoded.
type envelope struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Key     string `json:"key"`
	Len     int    `json:"len"`
	SHA256  string `json:"sha256"`
}

// envelopeMagic self-describes response bodies.
const envelopeMagic = "coopserve"

// encodeResponse wraps a result payload in its checksummed envelope.
func encodeResponse(key string, value any) ([]byte, error) {
	payload, err := json.Marshal(value)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	sum := sha256.Sum256(payload)
	hb, err := json.Marshal(envelope{
		Magic:   envelopeMagic,
		Version: ProtocolVersion,
		Key:     key,
		Len:     len(payload),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return nil, fmt.Errorf("service: encoding envelope: %w", err)
	}
	out := make([]byte, 0, len(hb)+1+len(payload))
	out = append(out, hb...)
	out = append(out, '\n')
	out = append(out, payload...)
	return out, nil
}

// decodeResponse verifies a response body against the key it should
// answer and unmarshals the payload into value. Any failure — missing
// header, bad magic or version, wrong key, torn tail, checksum
// mismatch, undecodable payload — is reported as an error the client
// treats as a transient transport fault (retry, then fall back).
func decodeResponse(key string, body []byte, value any) error {
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return fmt.Errorf("service: response has no envelope line")
	}
	var env envelope
	if err := json.Unmarshal(body[:nl], &env); err != nil {
		return fmt.Errorf("service: bad envelope: %w", err)
	}
	if env.Magic != envelopeMagic {
		return fmt.Errorf("service: bad envelope magic %q", env.Magic)
	}
	if env.Version != ProtocolVersion {
		return fmt.Errorf("service: protocol version %d, want %d", env.Version, ProtocolVersion)
	}
	if env.Key != key {
		return fmt.Errorf("service: response for key %q, want %q", env.Key, key)
	}
	payload := body[nl+1:]
	if len(payload) != env.Len {
		return fmt.Errorf("service: payload length %d, envelope says %d (truncated)", len(payload), env.Len)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return fmt.Errorf("service: payload checksum mismatch (corrupt)")
	}
	if err := json.Unmarshal(payload, value); err != nil {
		return fmt.Errorf("service: payload does not decode: %w", err)
	}
	return nil
}
