package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLinearExactLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{5, 7.7, 10.4, 13.1, 15.8} // y = 2.7x + 5
	f := Linear(x, y)
	if !approx(f.Slope, 2.7, 1e-9) || !approx(f.Intercept, 5, 1e-9) || !approx(f.R2, 1, 1e-9) {
		t.Errorf("fit = %+v, want slope 2.7 intercept 5 R2 1", f)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 1.37*xi+40+rng.NormFloat64()*3)
	}
	f := Linear(x, y)
	if !approx(f.Slope, 1.37, 0.05) {
		t.Errorf("slope = %v, want ~1.37", f.Slope)
	}
	if f.R2 < 0.95 {
		t.Errorf("R2 = %v, want > 0.95", f.R2)
	}
}

func TestLinearPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		x, y []float64
	}{
		{"mismatch", []float64{1, 2}, []float64{1}},
		{"short", []float64{1}, []float64{1}},
		{"degenerate", []float64{2, 2}, []float64{1, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			Linear(c.x, c.y)
		})
	}
}

func TestPowerLawExact(t *testing.T) {
	var x, y []float64
	for i := 1; i <= 50; i++ {
		x = append(x, float64(i))
		y = append(y, 1000*math.Pow(float64(i), -0.8))
	}
	f := PowerLaw(x, y)
	if !approx(f.B, -0.8, 1e-6) || !approx(f.A, 1000, 1e-3) || f.R2 < 0.999 {
		t.Errorf("fit = %+v, want A=1000 B=-0.8", f)
	}
}

func TestPowerLawSkipsNonPositive(t *testing.T) {
	x := []float64{0, 1, 2, 4}
	y := []float64{9, 8, 4, 2}
	f := PowerLaw(x, y) // the x=0 point must be dropped, not produce NaN
	if math.IsNaN(f.A) || math.IsNaN(f.B) {
		t.Errorf("fit contains NaN: %+v", f)
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{15, 20, 35, 40, 50}
	if got := Percentile(v, 0); got != 15 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(v, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Median(v); got != 35 {
		t.Errorf("median = %v", got)
	}
	if got := Percentile(v, 25); got != 20 {
		t.Errorf("P25 = %v", got)
	}
	// Interpolated value.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated P50 = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	v := []float64{3, 1, 2}
	Percentile(v, 50)
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !approx(got, 10, 1e-9) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := GeoMean([]float64{0.9, 0.9, 0.9}); !approx(got, 0.9, 1e-9) {
		t.Errorf("geomean = %v, want 0.9", got)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("mean = %v", got)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		vals := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(vals, pa), Percentile(vals, pb)
		return va <= vb &&
			va >= Percentile(vals, 0) && vb <= Percentile(vals, 100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
