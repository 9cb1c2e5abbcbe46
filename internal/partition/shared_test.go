package partition

// Core-count limits: the schemes give every core at least one way of
// its own, so a configuration with more cores than LLC ways is
// rejected at validation, as is one beyond the 64-core mask limit.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

func sharedCfg(cores, ways, sets int) Config {
	return Config{
		Cache:    cache.Config{Name: "l2", SizeBytes: sets * ways * 64, LineBytes: 64, Ways: ways, Latency: 10},
		NumCores: cores,
		DRAM:     mem.New(mem.DefaultConfig()),
	}
}

func TestValidateSharedWays(t *testing.T) {
	cfg := sharedCfg(8, 4, 16)
	if err := cfg.Validate(); err == nil {
		t.Fatal("8 cores on 4 ways must fail validation")
	}
	cfg.NumCores = 65
	if err := cfg.Validate(); err == nil {
		t.Fatal("65 cores must exceed the 64-core mask limit")
	}
}
