package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("GeoMean(2,2,2) = %v", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 || GeoMean([]float64{-1}) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}

// Property: geomean of positive values lies between min and max.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func testFigure() Figure {
	return Figure{
		ID: "FigX", Title: "test", XLabel: "group", YLabel: "speedup",
		X: []string{"G1", "G2"},
		Series: []NamedSeries{
			{Name: "UCP", Values: []float64{1.1, 1.2}},
			{Name: "CoopPart", Values: []float64{1.0, 1.3}},
		},
	}
}

func TestFigureValidate(t *testing.T) {
	f := testFigure()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	f.Series[0].Values = f.Series[0].Values[:1]
	if f.Validate() == nil {
		t.Fatal("ragged series accepted")
	}
}

func TestFigureGet(t *testing.T) {
	f := testFigure()
	if v := f.Get("UCP"); v == nil || v[0] != 1.1 {
		t.Fatalf("Get(UCP) = %v", v)
	}
	if f.Get("nosuch") != nil {
		t.Fatal("Get(unknown) should be nil")
	}
}

func TestFigureWriteTable(t *testing.T) {
	var sb strings.Builder
	if err := testFigure().WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"FigX", "UCP", "CoopPart", "G1", "1.100"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestFigureWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := testFigure().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3", len(lines))
	}
	if lines[0] != "group,UCP,CoopPart" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "G1,1.1,1" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Fatalf("escape = %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Fatalf("escape = %q", got)
	}
	if got := csvEscape("plain"); got != "plain" {
		t.Fatalf("escape = %q", got)
	}
}

func TestMeanNonZero(t *testing.T) {
	if got := MeanNonZero([]float64{0, 2, 0, 4}); got != 3 {
		t.Fatalf("MeanNonZero = %v, want 3", got)
	}
	if got := MeanNonZero([]float64{0, 0}); got != 0 {
		t.Fatalf("MeanNonZero(all zero) = %v, want 0", got)
	}
	if got := MeanNonZero(nil); got != 0 {
		t.Fatalf("MeanNonZero(nil) = %v, want 0", got)
	}
}
