package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
)

// benchSink keeps the benchmarked results live.
var benchSink linalg.Vector

// pdipShapedCrossbar programs the sparsity of the paper's extended matrix
// (Eq. 14a) with m constraints and n variables — dense A and Aᵀ blocks, unit
// slack couplings, and two-non-zero complementarity rows — as non-negative
// conductances, and returns the array with a matching input vector.
func pdipShapedCrossbar(b *testing.B, m, n int) (*Crossbar, linalg.Vector) {
	b.Helper()
	r := rand.New(rand.NewSource(1))
	// Columns [x(n) | y(m) | w(m) | z(n)]; rows [A 0 I 0], [0 Aᵀ 0 I],
	// [Z 0 0 X], [0 W Y 0].
	size := 2 * (n + m)
	a := linalg.NewMatrix(size, size)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, math.Abs(r.NormFloat64()))
		}
		a.Set(i, n+m+i, 1)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			a.Set(m+i, n+j, math.Abs(r.NormFloat64()))
		}
		a.Set(m+i, n+2*m+i, 1)
	}
	for i := 0; i < n; i++ {
		a.Set(m+n+i, i, 0.5+r.Float64())
		a.Set(m+n+i, n+2*m+i, 0.5+r.Float64())
	}
	for i := 0; i < m; i++ {
		a.Set(m+2*n+i, n+i, 0.5+r.Float64())
		a.Set(m+2*n+i, n+m+i, 0.5+r.Float64())
	}
	x, err := New(Config{Size: size})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := x.Program(a); err != nil {
		b.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(size)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return x, v
}

// BenchmarkCrossbarSettle measures one simulated analog settle (Solve) of an
// m=24 PDIP-shaped network: the per-iteration Newton solve of Algorithm 1.
func BenchmarkCrossbarSettle(b *testing.B) {
	x, rhs := pdipShapedCrossbar(b, 24, 24)
	if _, err := x.Solve(rhs); err != nil {
		b.Fatalf("Solve: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := x.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

// BenchmarkCrossbarMatVecResidual measures one analog residual read of the
// same network: the per-iteration residual of Algorithm 1.
func BenchmarkCrossbarMatVecResidual(b *testing.B) {
	x, v := pdipShapedCrossbar(b, 24, 24)
	base := v.Clone()
	if _, err := x.MatVecResidual(base, v, nil); err != nil {
		b.Fatalf("MatVecResidual: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := x.MatVecResidual(base, v, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}
