package main

import "testing"

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n        int
		pct, val float64
		ok       bool
	}{
		{n: 2000, pct: 99.5, val: 1990, ok: true},
		{n: 1000, pct: 99, val: 990, ok: true},
		{n: 999, pct: 95, val: 950, ok: true},
		{n: 100, pct: 90, val: 90, ok: true},
		{n: 20, pct: 50, val: 10, ok: true},
		{n: 19, ok: false},
	} {
		pct, val, ok := tail(seq(c.n))
		if ok != c.ok || (ok && (pct != c.pct || val != c.val)) {
			t.Errorf("n=%d: tail = p%g %g %v, want p%g %g %v", c.n, pct, val, ok, c.pct, c.val, c.ok)
		}
		if ok && c.n-rank(pct, c.n) < minBeyond {
			t.Errorf("n=%d: p%g has fewer than %d samples beyond it", c.n, pct, minBeyond)
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	s := seq(1000)
	if got := percentile(s, 50); got != 500 {
		t.Errorf("p50 = %g, want 500", got)
	}
	if got := percentile(s, 99); got != 990 {
		t.Errorf("p99 = %g, want 990", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}
