// Package stats provides the statistical helpers the paper's evaluation
// leans on: least-squares linear regression with R² (Fig 1's growth slopes),
// power-law fitting via log-log regression (Fig 5's repetition frequency),
// and arithmetic and geometric means.
package stats

import (
	"fmt"
	"math"
)

// LinearFit is y = Slope*x + Intercept with goodness-of-fit R².
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// Linear fits a least-squares line through (x, y). It panics if the slices
// differ in length or contain fewer than two points.
func Linear(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic(fmt.Sprintf("stats: mismatched lengths %d vs %d", len(x), len(y)))
	}
	if len(x) < 2 {
		panic("stats: need at least two points")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		panic("stats: degenerate x values")
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n

	meanY := sy / n
	var ssTot, ssRes float64
	for i := range x {
		pred := slope*x[i] + intercept
		ssTot += (y[i] - meanY) * (y[i] - meanY)
		ssRes += (y[i] - pred) * (y[i] - pred)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// PowerFit is y = A * x^B, fitted in log-log space; R2 is the log-space
// goodness of fit (the paper reports 99.4% confidence for the repetition
// frequency power law).
type PowerFit struct {
	A  float64
	B  float64
	R2 float64
}

// PowerLaw fits y = A*x^B over strictly positive data.
func PowerLaw(x, y []float64) PowerFit {
	lx := make([]float64, 0, len(x))
	ly := make([]float64, 0, len(y))
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	f := Linear(lx, ly)
	return PowerFit{A: math.Exp(f.Intercept), B: f.Slope, R2: f.R2}
}

// GeoMean returns the geometric mean of strictly positive values.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		panic("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, v := range values {
		if v <= 0 {
			panic("stats: geomean needs positive values")
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(values)))
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		panic("stats: mean of empty slice")
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}
