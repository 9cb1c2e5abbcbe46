package cpu

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// fixedMem is a MemPort with constant behaviour for testing.
type fixedMem struct {
	latency int64
	l1Hit   bool
	calls   int
}

func (m *fixedMem) Access(core int, addr uint64, isWrite bool, now int64) AccessReply {
	m.calls++
	return AccessReply{Latency: m.latency, L1Hit: m.l1Hit}
}

// Fetch always hits so data-side timing tests stay pure.
func (m *fixedMem) Fetch(core int, pc uint64, now int64) AccessReply {
	return AccessReply{Latency: 2, L1Hit: true}
}

func (m *fixedMem) AccessHits(core int, addr uint64) bool { return m.l1Hit }
func (m *fixedMem) FetchHits(core int, pc uint64) bool    { return true }

func genConfig(memFrac, branchFrac float64) trace.Config {
	return trace.Config{
		MemFrac:     memFrac,
		StoreFrac:   0.3,
		BranchFrac:  branchFrac,
		BranchNoise: 0,
		StreamFrac:  1,
		LineBytes:   64,
		MLP:         2,
		Seed:        1,
	}
}

func TestGsharePredictsStablePattern(t *testing.T) {
	g := NewGshare(DefaultGshareConfig())
	// Always-taken branch becomes perfectly predicted after warm-up.
	pc := uint64(0x400100)
	for i := 0; i < 1000; i++ {
		g.Predict(pc, true)
	}
	before := g.Stats().Mispredicts
	for i := 0; i < 1000; i++ {
		g.Predict(pc, true)
	}
	if got := g.Stats().Mispredicts - before; got != 0 {
		t.Fatalf("%d mispredicts on a saturated always-taken branch", got)
	}
}

func TestGshareRandomPatternMispredicts(t *testing.T) {
	g := NewGshare(DefaultGshareConfig())
	state := uint64(12345)
	for i := 0; i < 20000; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		g.Predict(0x400100, state>>63 == 1)
	}
	st := g.Stats()
	if rate := float64(st.Mispredicts) / float64(st.Branches); rate < 0.2 {
		t.Fatalf("mispredict rate on random outcomes = %v, want >= 0.2", rate)
	}
}

func TestGshareBTBMissCountsAsMispredict(t *testing.T) {
	g := NewGshare(DefaultGshareConfig())
	// First taken encounter of a PC misses the BTB.
	g.Predict(0x400100, true)
	if g.Stats().BTBMisses != 1 || g.Stats().Mispredicts != 1 {
		t.Fatalf("stats = %+v, want 1 BTB miss and 1 mispredict", g.Stats())
	}
}

func TestGshareMispredictRateEmpty(t *testing.T) {
	g := NewGshare(DefaultGshareConfig())
	if st := g.Stats(); st != (BranchStats{}) {
		t.Fatalf("empty predictor counted %+v", st)
	}
}

func TestCoreALUOnlyIPCEqualsWidth(t *testing.T) {
	gen := trace.NewGenerator(genConfig(0, 0))
	mem := &fixedMem{l1Hit: true}
	// All-ALU workload must hit exactly IPC = Width.
	core := NewCore(0, DefaultConfig(), gen, mem)
	for i := 0; i < 10000; i++ {
		core.Step()
	}
	if got := core.IPC(); math.Abs(got-4) > 0.01 {
		t.Fatalf("ALU-only IPC = %v, want 4", got)
	}
	if mem.calls != 0 {
		t.Fatal("ALU instructions accessed memory")
	}
}

func TestCoreMemoryStallsLowerIPC(t *testing.T) {
	genHit := trace.NewGenerator(genConfig(0.3, 0))
	hitCore := NewCore(0, DefaultConfig(), genHit, &fixedMem{l1Hit: true})
	genMiss := trace.NewGenerator(genConfig(0.3, 0))
	missCore := NewCore(0, DefaultConfig(), genMiss, &fixedMem{l1Hit: false, latency: 400})
	for i := 0; i < 20000; i++ {
		hitCore.Step()
		missCore.Step()
	}
	if missCore.IPC() >= hitCore.IPC()/4 {
		t.Fatalf("miss-bound IPC %v not much lower than hit-bound %v",
			missCore.IPC(), hitCore.IPC())
	}
}

func TestCoreL1HitFullyHidden(t *testing.T) {
	gen := trace.NewGenerator(genConfig(0.5, 0))
	core := NewCore(0, DefaultConfig(), gen, &fixedMem{l1Hit: true, latency: 2})
	for i := 0; i < 10000; i++ {
		core.Step()
	}
	if got := core.IPC(); math.Abs(got-4) > 0.01 {
		t.Fatalf("L1-hit IPC = %v, want 4 (hidden by the window)", got)
	}
}

func TestCoreBranchPenalty(t *testing.T) {
	cfg := genConfig(0, 0.5)
	cfg.BranchNoise = 1 // fully random outcomes: heavy mispredicts
	gen := trace.NewGenerator(cfg)
	core := NewCore(0, DefaultConfig(), gen, &fixedMem{l1Hit: true})
	for i := 0; i < 20000; i++ {
		core.Step()
	}
	if core.IPC() > 1.5 {
		t.Fatalf("random-branch IPC = %v, want well under width", core.IPC())
	}
	if core.Stats().Branches == 0 || core.gshare.Stats().Mispredicts == 0 {
		t.Fatal("branch statistics not recorded")
	}
}

func TestCoreMLPReducesStall(t *testing.T) {
	mk := func(mlp float64) *Core {
		cfg := genConfig(0.4, 0)
		cfg.MLP = mlp
		return NewCore(0, DefaultConfig(), trace.NewGenerator(cfg),
			&fixedMem{l1Hit: false, latency: 400})
	}
	low, high := mk(1), mk(4)
	for i := 0; i < 20000; i++ {
		low.Step()
		high.Step()
	}
	if high.IPC() <= low.IPC() {
		t.Fatalf("MLP=4 IPC %v not above MLP=1 IPC %v", high.IPC(), low.IPC())
	}
}

func TestCoreResetStats(t *testing.T) {
	gen := trace.NewGenerator(genConfig(0.3, 0.1))
	core := NewCore(0, DefaultConfig(), gen, &fixedMem{l1Hit: false, latency: 100})
	for i := 0; i < 5000; i++ {
		core.Step()
	}
	clockBefore := core.Now()
	core.ResetStats()
	if core.Retired() != 0 || core.IPC() != 0 {
		t.Fatal("ResetStats did not restart accounting")
	}
	if core.Now() != clockBefore {
		t.Fatal("ResetStats must not rewind the clock")
	}
	for i := 0; i < 5000; i++ {
		core.Step()
	}
	if core.Retired() != 5000 {
		t.Fatalf("Retired = %d, want 5000", core.Retired())
	}
	if core.Now() <= clockBefore {
		t.Fatal("measured cycles must be positive after stepping")
	}
}

func TestCoreStoresCheaperThanLoads(t *testing.T) {
	mkCore := func(storeFrac float64) *Core {
		cfg := genConfig(0.4, 0)
		cfg.StoreFrac = storeFrac
		return NewCore(0, DefaultConfig(), trace.NewGenerator(cfg),
			&fixedMem{l1Hit: false, latency: 400})
	}
	loads, stores := mkCore(0), mkCore(1)
	for i := 0; i < 20000; i++ {
		loads.Step()
		stores.Step()
	}
	if stores.IPC() <= loads.IPC() {
		t.Fatalf("store-heavy IPC %v should beat load-heavy IPC %v",
			stores.IPC(), loads.IPC())
	}
}

func TestConfigValidate(t *testing.T) {
	if DefaultConfig().Validate() != nil {
		t.Fatal("default config should validate")
	}
	// Non-positive widths, and widths that are not a power of two
	// (StepEvent's batched retirement would round differently from
	// per-instruction retirement).
	for _, width := range []int{0, 3, 6} {
		bad := DefaultConfig()
		bad.Width = width
		if bad.Validate() == nil {
			t.Fatalf("width %d should fail", width)
		}
	}
}

func TestNewCorePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCore with bad config did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.ROB = 0
	NewCore(0, cfg, trace.NewGenerator(genConfig(0, 0)), &fixedMem{})
}

// fetchMem misses the L1I every call but hits all data accesses.
type fetchMem struct{ fetches int }

func (m *fetchMem) Access(core int, addr uint64, isWrite bool, now int64) AccessReply {
	return AccessReply{Latency: 2, L1Hit: true}
}

func (m *fetchMem) Fetch(core int, pc uint64, now int64) AccessReply {
	m.fetches++
	return AccessReply{Latency: 17, L1Hit: false}
}

func (m *fetchMem) AccessHits(core int, addr uint64) bool { return true }
func (m *fetchMem) FetchHits(core int, pc uint64) bool    { return false }

func TestCoreFetchMissesStallFrontEnd(t *testing.T) {
	cfg := genConfig(0, 0.3)
	cfg.BranchNoise = 0
	cfg.CodeLines = 64 // jumps land on new lines often
	gen := trace.NewGenerator(cfg)
	core := NewCore(0, DefaultConfig(), gen, &fetchMem{})
	for i := 0; i < 20000; i++ {
		core.Step()
	}
	if core.Stats().FetchMisses == 0 {
		t.Fatal("no fetch misses recorded")
	}
	// Fetch stalls must push IPC well below width.
	if core.IPC() > 3 {
		t.Fatalf("IPC = %v despite constant fetch misses", core.IPC())
	}
}

func TestCoreSequentialFetchCoalesces(t *testing.T) {
	// Straight-line code (no branches): one fetch per 16 instructions
	// (64B line / 4B instructions).
	cfg := genConfig(0, 0)
	cfg.CodeLines = 1024
	gen := trace.NewGenerator(cfg)
	m := &fetchMem{}
	core := NewCore(0, DefaultConfig(), gen, m)
	const n = 16000
	for i := 0; i < n; i++ {
		core.Step()
	}
	if m.fetches > n/16+2 || m.fetches < n/16-2 {
		t.Fatalf("fetches = %d, want ~%d (one per line)", m.fetches, n/16)
	}
}
