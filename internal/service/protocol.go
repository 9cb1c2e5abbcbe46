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
// keyed by the same runKey identity the store uses), responses sealed
// in the store's checksummed frame, and a degradation ladder that
// falls back to local computation after consecutive transport
// failures. The proof layer is FaultTripper, the network analogue of
// store.FaultFS.
package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/store"
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

// responseMagic self-describes response bodies.
const responseMagic = "coopserve"

// encodeResponse seals a result payload in the frame store entries
// use (store.Seal): a header line whose length and SHA-256 pin the
// payload, so truncation and corruption anywhere on the wire are
// detected and retried instead of decoded.
func encodeResponse(key string, value any) ([]byte, error) {
	payload, err := json.Marshal(value)
	if err != nil {
		return nil, fmt.Errorf("service: encoding result: %w", err)
	}
	return store.Seal(responseMagic, ProtocolVersion, key, payload)
}

// decodeResponse verifies a response body against the key it should
// answer and unmarshals the payload into value. Any failure — missing
// header, bad magic or version, wrong key, torn tail, checksum
// mismatch, undecodable payload — is reported as an error the client
// treats as a transient transport fault (retry, then fall back).
func decodeResponse(key string, body []byte, value any) error {
	payload, err := store.Unseal(responseMagic, ProtocolVersion, key, body)
	if err != nil {
		return fmt.Errorf("service: bad response: %w", err)
	}
	if err := json.Unmarshal(payload, value); err != nil {
		return fmt.Errorf("service: payload does not decode: %w", err)
	}
	return nil
}
