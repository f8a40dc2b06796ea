// Package stats provides the statistics the §6.2 evaluation uses: sample
// summaries, empirical CDFs (Figure 12b), and the t-test the paper runs
// to show there is no significant latency difference between the
// baseline and the all-checkers configuration (it cites Student's 1908
// paper; we implement Welch's unequal-variance form, the safe default).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the moments of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64 // sample variance (n-1 denominator)
	Min, Max float64
}

// Summarize computes the sample summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
	}
	return s
}

// Percentile returns the p-th percentile (0..100) by linear
// interpolation on the sorted sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns the empirical distribution function of the sample, one
// point per observation (Figure 12b's curves).
func CDF(xs []float64) []CDFPoint {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, len(sorted))
	for i, x := range sorted {
		out[i] = CDFPoint{X: x, P: float64(i+1) / float64(len(sorted))}
	}
	return out
}

// TTestResult is the outcome of a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch-Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// Significant reports whether the difference is significant at level
// alpha (e.g. 0.05).
func (r TTestResult) Significant(alpha float64) bool { return r.P < alpha }

func (r TTestResult) String() string {
	return fmt.Sprintf("t=%.4f df=%.1f p=%.4f", r.T, r.DF, r.P)
}

// WelchTTest runs the two-sided unequal-variance t-test on two samples.
func WelchTTest(a, b []float64) (TTestResult, error) {
	sa, sb := Summarize(a), Summarize(b)
	if sa.N < 2 || sb.N < 2 {
		return TTestResult{}, fmt.Errorf("stats: t-test needs at least 2 observations per sample (have %d, %d)", sa.N, sb.N)
	}
	va := sa.Variance / float64(sa.N)
	vb := sb.Variance / float64(sb.N)
	if va+vb == 0 {
		// Identical constant samples: no difference at all.
		return TTestResult{T: 0, DF: float64(sa.N + sb.N - 2), P: 1}, nil
	}
	t := (sa.Mean - sb.Mean) / math.Sqrt(va+vb)
	df := (va + vb) * (va + vb) /
		(va*va/float64(sa.N-1) + vb*vb/float64(sb.N-1))
	p := 2 * studentTCDFUpper(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

// studentTCDFUpper returns P(T > t) for Student's t with df degrees of
// freedom, via the regularized incomplete beta function:
// P(T > t) = I_{df/(df+t²)}(df/2, 1/2) / 2.
func studentTCDFUpper(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(math.Log(x)*a + math.Log(1-x)*b + lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
