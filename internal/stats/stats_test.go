package stats

import (
	"math"
	"math/rand"
	"testing"
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
