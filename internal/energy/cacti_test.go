package energy

import (
	"math"
	"reflect"
	"testing"
)

func TestFromGeometryAnchoredToDefaults(t *testing.T) {
	// The paper's two-core LLC must reproduce the default constants'
	// anchor: a tag probe of 1.0 and a data read of 8.0.
	p, err := FromGeometry(PaperTwoCoreGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.TagReadPerWay-1.0) > 1e-9 {
		t.Fatalf("tag probe = %v, want anchor 1.0", p.TagReadPerWay)
	}
	if math.Abs(p.DataRead-8.0) > 1e-9 {
		t.Fatalf("data read = %v, want anchor 8.0", p.DataRead)
	}
	if math.Abs(p.LeakPerWayCyc-0.02) > 1e-9 {
		t.Fatalf("leakage = %v, want anchor 0.02", p.LeakPerWayCyc)
	}
	// At the anchor geometry every derived constant is the default.
	got, want := reflect.ValueOf(p), reflect.ValueOf(DefaultParams())
	for i := 0; i < got.NumField(); i++ {
		if g, w := got.Field(i).Float(), want.Field(i).Float(); math.Abs(g-w) > 1e-9 {
			t.Fatalf("%s = %v, want the default %v", got.Type().Field(i).Name, g, w)
		}
	}
}

func TestFromGeometryMonotoneInSize(t *testing.T) {
	small := Geometry{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, TagBits: 30, TechNM: 45}
	big := Geometry{SizeBytes: 2 << 20, LineBytes: 64, Ways: 8, TagBits: 30, TechNM: 45}
	ps, err := FromGeometry(small)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := FromGeometry(big)
	if err != nil {
		t.Fatal(err)
	}
	if ps.TagReadPerWay >= pb.TagReadPerWay {
		t.Fatal("bigger tag array should cost more per probe")
	}
	if ps.DataRead >= pb.DataRead {
		t.Fatal("bigger data array should cost more per read")
	}
	if ps.LeakPerWayCyc >= pb.LeakPerWayCyc {
		t.Fatal("bigger way should leak more")
	}
}

func TestFromGeometryTechScaling(t *testing.T) {
	g45 := PaperTwoCoreGeometry()
	g32 := g45
	g32.TechNM = 32
	p45, _ := FromGeometry(g45)
	p32, err := FromGeometry(g32)
	if err != nil {
		t.Fatal(err)
	}
	if p32.DataRead >= p45.DataRead {
		t.Fatal("smaller node should cost less dynamic energy")
	}
	// Quadratic scaling: (32/45)^2.
	want := p45.DataRead * (32.0 / 45) * (32.0 / 45)
	if math.Abs(p32.DataRead-want) > 1e-9 {
		t.Fatalf("tech scaling = %v, want %v", p32.DataRead, want)
	}
}

func TestFromGeometryWriteCostsMore(t *testing.T) {
	p, _ := FromGeometry(PaperFourCoreGeometry())
	if p.DataWrite <= p.DataRead {
		t.Fatal("writes must cost more than reads")
	}
}

func TestFromGeometryRejectsBad(t *testing.T) {
	bad := []Geometry{
		{},
		{SizeBytes: 1024, LineBytes: 64, Ways: 4, TagBits: 0, TechNM: 45},
		{SizeBytes: 1024, LineBytes: 64, Ways: 4, TagBits: 30, TechNM: 0},
	}
	for i, g := range bad {
		if _, err := FromGeometry(g); err == nil {
			t.Errorf("geometry %d accepted: %+v", i, g)
		}
	}
}

func TestTagBitsFor(t *testing.T) {
	// 2MB, 64B, 8-way: 4096 sets -> 12 index + 6 offset = 22 used bits.
	if got := tagBitsFor(40, 2<<20, 64, 8); got != 40-12-6 {
		t.Fatalf("tagBitsFor = %d, want %d", got, 40-12-6)
	}
}

func TestPaperGeometriesValidate(t *testing.T) {
	for _, g := range []Geometry{PaperTwoCoreGeometry(), PaperFourCoreGeometry()} {
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
		if !g.SerialMode {
			t.Error("LLC geometries must be serial access")
		}
	}
}
