package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
)

// TestAnalogReadAllocations pins the //memlp:hotpath contract at runtime:
// after warm-up, the per-iteration analog read kernels (MatVec, residual
// read, linear solve) run without allocating — all results live in
// crossbar-owned scratch. The memlpvet hotpath analyzer enforces the same
// property at the source level for the annotated leaf kernels.
func TestAnalogReadAllocations(t *testing.T) {
	const n = 16
	r := rand.New(rand.NewSource(7))
	x := mustNew(t, idealConfig(n))
	if err := x.Program(randomNonNegMatrix(r, n)); err != nil {
		t.Fatalf("Program: %v", err)
	}
	v := linalg.NewVector(n)
	base := linalg.NewVector(n)
	for i := range v {
		v[i] = r.Float64()
		base[i] = r.Float64()
	}
	// Warm-up populates the scratch buffers.
	if _, err := x.MatVec(v); err != nil {
		t.Fatalf("MatVec warm-up: %v", err)
	}
	if _, err := x.MatVecResidual(base, v, nil); err != nil {
		t.Fatalf("MatVecResidual warm-up: %v", err)
	}
	if _, err := x.Solve(base); err != nil {
		t.Fatalf("Solve warm-up: %v", err)
	}

	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.MatVec(v); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("MatVec allocates %.0f per call after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.MatVecResidual(base, v, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("MatVecResidual allocates %.0f per call after warm-up, want 0", allocs)
	}
}

// refSenseRow is senseRow's general loop: every cell through effG, zeros
// included. The zero-skipping fast path must reproduce it bit for bit.
func refSenseRow(x *Crossbar, i int, vi linalg.Vector) (num, sum float64) {
	for j, g := range x.gt.RawRow(i) {
		ge := x.effG(i, j, g)
		num += ge * vi[j]
		sum += ge
	}
	return num, sum
}

// sparseNonNegMatrix is randomNonNegMatrix with about half the off-diagonal
// cells zero, so senseRow's zero skipping has cells to skip.
func sparseNonNegMatrix(r *rand.Rand, n int) *linalg.Matrix {
	m := randomNonNegMatrix(r, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Intn(2) == 0 {
				m.Set(i, j, 0)
			}
		}
	}
	return m
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSenseRowMatchesMatVec keeps the extracted kernel honest: senseRow must
// reproduce exactly what the effG loop computes per row, on the plain array
// (zero-skipping path) and with wire resistance or retention drift (effG
// path).
func TestSenseRowMatchesMatVec(t *testing.T) {
	const n = 8
	cases := []struct {
		name      string
		mutate    func(*Config)
		wantPlain bool
	}{
		{"plain", func(*Config) {}, true},
		{"wire-resistance", func(c *Config) { c.WireResistance = 2 }, false},
		{"drift", func(c *Config) {
			c.Faults = &memristor.FaultModel{DriftPerCycle: 0.05, Seed: 1}
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(11))
			cfg := idealConfig(n)
			tc.mutate(&cfg)
			x := mustNew(t, cfg)
			if err := x.Program(sparseNonNegMatrix(r, n)); err != nil {
				t.Fatalf("Program: %v", err)
			}
			v := linalg.NewVector(n)
			for i := range v {
				v[i] = r.Float64()
			}
			// A settle ages every cell one refresh cycle, so drift is live.
			if _, err := x.Solve(v); err != nil {
				t.Fatalf("Solve: %v", err)
			}
			vi, _, err := x.toAnalog(v)
			if err != nil {
				t.Fatalf("toAnalog: %v", err)
			}
			plain := x.plainSense(vi)
			if plain != tc.wantPlain {
				t.Fatalf("plainSense = %v, want %v", plain, tc.wantPlain)
			}
			gs := x.cfg.SenseConductance
			for i := 0; i < n; i++ {
				num, sum := x.senseRow(i, vi, plain)
				wantNum, wantSum := refSenseRow(x, i, vi)
				if !sameBits(num, wantNum) || !sameBits(sum, wantSum) {
					t.Fatalf("senseRow(%d) = (%v, %v), want (%v, %v)", i, num, sum, wantNum, wantSum)
				}
				if wantSum+gs == 0 {
					t.Fatalf("row %d: degenerate total conductance", i)
				}
			}
		})
	}
}

// TestSenseRowNonFiniteInput pins the fast path's guard: 0·NaN and 0·Inf are
// NaN, so a non-finite input must reach every row through the effG loop, zero
// cells included. Column 0 is zero in every row but the first, so skipping
// zeros would hand back finite values for rows 1..n−1, where the effG loop
// gives NaN.
func TestSenseRowNonFiniteInput(t *testing.T) {
	const n = 4
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 1; j < n; j++ {
			a.Set(i, j, float64(1+i+j))
		}
	}
	a.Set(0, 0, 1)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		x := mustNew(t, idealConfig(n))
		if err := x.Program(a); err != nil {
			t.Fatalf("Program: %v", err)
		}
		v := linalg.VectorOf(bad, 1, 2, 3)
		if x.plainSense(v) {
			t.Fatalf("plainSense accepted input %v", bad)
		}
		for i := 0; i < n; i++ {
			num, sum := x.senseRow(i, v, x.plainSense(v))
			wantNum, wantSum := refSenseRow(x, i, v)
			if !sameBits(num, wantNum) || !sameBits(sum, wantSum) {
				t.Fatalf("input %v: senseRow(%d) = (%v, %v), want (%v, %v)", bad, i, num, sum, wantNum, wantSum)
			}
		}
		out, err := x.MatVec(v)
		if err != nil {
			t.Fatalf("MatVec: %v", err)
		}
		for i, o := range out[1:] {
			if !math.IsNaN(o) {
				t.Errorf("input %v: MatVec[%d] = %v, want NaN", bad, i+1, o)
			}
		}
		res, err := x.MatVecResidual(linalg.NewVector(n), v, nil)
		if err != nil {
			t.Fatalf("MatVecResidual: %v", err)
		}
		for i, o := range res[1:] {
			if !math.IsNaN(o) {
				t.Errorf("input %v: MatVecResidual[%d] = %v, want NaN", bad, i+1, o)
			}
		}
	}
}
