package crossbar

import (
	"math"
	"math/rand"
	"testing"

	"github.com/memlp/memlp/internal/linalg"
	"github.com/memlp/memlp/internal/memristor"
)

// refPGA is the Log2/Exp2 per-element PGA formula quantizeIO and quantizeG
// used before pgaScale; the pins below hold the Frexp/Ldexp version to it.
func refPGA(e float64, bits int) float64 {
	step := math.Exp2(-float64(bits - 1))
	scale := math.Exp2(math.Ceil(math.Log2(math.Abs(e)))) * step
	return math.Round(e/scale) * scale
}

func refQuantizeIO(e float64, bits int) float64 {
	if e == 0 || math.IsNaN(e) || math.IsInf(e, 0) {
		return e
	}
	return refPGA(e, bits)
}

func refQuantizeG(x *Crossbar, g float64) float64 {
	gmin, gmax := x.cfg.Device.GMin(), x.cfg.Device.GMax()
	if g <= gmin {
		return gmin
	}
	if g >= gmax {
		return gmax
	}
	return refPGA(g, x.cfg.WriteBits)
}

// wideQuantizer returns an array whose I/O and write precision are both bits
// and whose device conductance window spans almost the whole float64 range
// (gmin ≈ 2^−1024, gmax = 2^1023), so quantizeG's clamps do not hide its grid.
// The window is not physical, which is why the struct is built directly.
func wideQuantizer(bits int) *Crossbar {
	return &Crossbar{cfg: Config{
		IOBits:    bits,
		WriteBits: bits,
		Device:    memristor.DeviceParams{RON: math.Ldexp(1, -1023), ROFF: math.MaxFloat64},
	}}
}

// checkQuantizers compares quantizeIO and quantizeG with the reference
// formula at e and −e.
func checkQuantizers(t *testing.T, x *Crossbar, e float64) {
	t.Helper()
	bits := x.cfg.IOBits
	for _, s := range []float64{e, -e} {
		v := linalg.Vector{s}
		if err := x.quantizeIO(v); err != nil {
			t.Fatalf("quantizeIO: %v", err)
		}
		if want := refQuantizeIO(s, bits); !sameBits(v[0], want) {
			t.Fatalf("bits %d: quantizeIO(%x) = %x, want %x", bits, s, v[0], want)
		}
		if got, want := x.quantizeG(s), refQuantizeG(x, s); !sameBits(got, want) {
			t.Fatalf("bits %d: quantizeG(%x) = %x, want %x", bits, s, got, want)
		}
	}
}

// TestPGAScaleMatchesLog2 pins pgaScale's Frexp exponent to the Log2 formula
// it replaced: quantizeIO and quantizeG must give the same bits at every
// power of two 2^k, k ∈ [−1060, 1023], one ulp below it and one and two ulps
// above it, and on 10⁶ random values, for both signs and for bits 2–24. A
// rounded Log2 can differ from the exact exponent only just above a power of
// two, where both grids round to that power; at bits 1 there is no grid point
// between 2^k and 2^(k+1), so that precision is excluded.
func TestPGAScaleMatchesLog2(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const samples = 1_000_000
	for bits := 2; bits <= 24; bits++ {
		x := wideQuantizer(bits)
		for k := -1060; k <= 1023; k++ {
			p := math.Ldexp(1, k)
			checkQuantizers(t, x, p)
			checkQuantizers(t, x, math.Nextafter(p, 0))
			up := math.Nextafter(p, math.Inf(1))
			checkQuantizers(t, x, up)
			checkQuantizers(t, x, math.Nextafter(up, math.Inf(1)))
		}
		// Random mantissas over every binade below the top one (see
		// TestPGAScaleTopBinade), split evenly across the precisions.
		for n := 0; n < samples/23; n++ {
			m := 1 + float64(r.Int63n(1<<52))/(1<<52)
			checkQuantizers(t, x, math.Ldexp(m, -1074+r.Intn(2097)))
		}
	}
}

// TestPGAScaleTopBinade documents the one place pgaScale departs from the
// Log2 formula: for |e| in the top binade (2^1023, MaxFloat64] the old
// formula's Exp2(1024) overflowed to +Inf and made the result NaN, while
// pgaScale's step stays finite and e rounds onto its grid (to ±Inf when it
// rounds up past MaxFloat64). Analog reads never carry values this large.
func TestPGAScaleTopBinade(t *testing.T) {
	for bits := 2; bits <= 24; bits++ {
		x := wideQuantizer(bits)
		for _, e := range []float64{math.Ldexp(1.5, 1023), math.MaxFloat64, -math.Ldexp(1.25, 1023)} {
			if ref := refQuantizeIO(e, bits); !math.IsNaN(ref) {
				t.Fatalf("bits %d: reference at %v = %v, expected its NaN overflow", bits, e, ref)
			}
			v := linalg.Vector{e}
			if err := x.quantizeIO(v); err != nil {
				t.Fatalf("quantizeIO: %v", err)
			}
			if got := v[0]; math.IsNaN(got) || math.Signbit(got) != math.Signbit(e) || math.Abs(got) < math.Ldexp(1, 1023) {
				t.Errorf("bits %d: quantizeIO(%v) = %v, want the grid point next to it", bits, e, got)
			}
		}
	}
}

// TestQuantizeIOPassesNonFiniteAndZero pins the pass-through cases: zero (of
// either sign), NaN and ±Inf leave the per-element PGA unchanged.
func TestQuantizeIOPassesNonFiniteAndZero(t *testing.T) {
	x := wideQuantizer(8)
	in := linalg.Vector{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	v := in.Clone()
	if err := x.quantizeIO(v); err != nil {
		t.Fatalf("quantizeIO: %v", err)
	}
	for i := range in {
		if !sameBits(v[i], in[i]) {
			t.Errorf("quantizeIO(%v) = %v, want it unchanged", in[i], v[i])
		}
	}
}
