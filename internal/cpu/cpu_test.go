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
	g := NewGshare()
	// Always-taken branch becomes perfectly predicted after warm-up.
	pc := uint64(0x400100)
	for i := 0; i < 1000; i++ {
		g.Predict(pc, true)
	}
	for i := 0; i < 1000; i++ {
		if !g.Predict(pc, true) {
			t.Fatalf("mispredict %d on a saturated always-taken branch", i)
		}
	}
}

func TestGshareRandomPatternMispredicts(t *testing.T) {
	g := NewGshare()
	state := uint64(12345)
	const n = 20000
	mispredicts := 0
	for i := 0; i < n; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		if !g.Predict(0x400100, state>>63 == 1) {
			mispredicts++
		}
	}
	if rate := float64(mispredicts) / n; rate < 0.2 {
		t.Fatalf("mispredict rate on random outcomes = %v, want >= 0.2", rate)
	}
}

// A taken branch whose direction is predicted but whose PC misses the
// BTB has no target and mispredicts. b shares a's PHT entry (same low
// PC bits, and the history is all taken), so a's saturated counter
// predicts b taken, but b carries a new BTB tag.
func TestGshareBTBMissCountsAsMispredict(t *testing.T) {
	g := NewGshare()
	a := uint64(0x400100)
	for i := 0; i < 100; i++ {
		g.Predict(a, true)
	}
	b := a + 4<<tableBits
	if g.Predict(b, true) {
		t.Fatal("first taken encounter of a new PC predicted correctly despite the BTB miss")
	}
	if !g.Predict(b, true) {
		t.Fatal("second taken encounter mispredicted: the BTB miss did not fill it")
	}
}

// Every taken branch probes the BTB, so one whose direction the fresh
// counters mispredict still leaves its target behind.
func TestGshareDirectionMispredictFillsBTB(t *testing.T) {
	g := NewGshare()
	pc := uint64(0x400100)
	if g.Predict(pc, true) {
		t.Fatal("weakly not-taken counters predicted a taken branch")
	}
	if !g.btbLookupInsert(pc) {
		t.Fatal("the mispredicted taken branch did not fill the BTB")
	}
}

func TestCoreALUOnlyIPCEqualsWidth(t *testing.T) {
	gen := trace.NewGenerator(genConfig(0, 0))
	mem := &fixedMem{l1Hit: true}
	// All-ALU workload must hit exactly IPC = Width.
	core := NewCore(0, gen, mem)
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
	hitCore := NewCore(0, genHit, &fixedMem{l1Hit: true})
	genMiss := trace.NewGenerator(genConfig(0.3, 0))
	missCore := NewCore(0, genMiss, &fixedMem{l1Hit: false, latency: 400})
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
	core := NewCore(0, gen, &fixedMem{l1Hit: true, latency: 2})
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
	core := NewCore(0, gen, &fixedMem{l1Hit: true})
	for i := 0; i < 20000; i++ {
		core.Step()
	}
	if core.IPC() > 1.5 {
		t.Fatalf("random-branch IPC = %v, want well under width", core.IPC())
	}
	if core.gshare.clock == 0 {
		t.Fatal("no taken branch reached the predictor")
	}
}

func TestCoreMLPReducesStall(t *testing.T) {
	mk := func(mlp float64) *Core {
		cfg := genConfig(0.4, 0)
		cfg.MLP = mlp
		return NewCore(0, trace.NewGenerator(cfg), &fixedMem{l1Hit: false, latency: 400})
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
	core := NewCore(0, gen, &fixedMem{l1Hit: false, latency: 100})
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
		return NewCore(0, trace.NewGenerator(cfg), &fixedMem{l1Hit: false, latency: 400})
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
	m := &fetchMem{}
	core := NewCore(0, gen, m)
	for i := 0; i < 20000; i++ {
		core.Step()
	}
	if m.fetches == 0 {
		t.Fatal("no fetch misses served")
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
	core := NewCore(0, gen, m)
	const n = 16000
	for i := 0; i < n; i++ {
		core.Step()
	}
	if m.fetches > n/16+2 || m.fetches < n/16-2 {
		t.Fatalf("fetches = %d, want ~%d (one per line)", m.fetches, n/16)
	}
}
