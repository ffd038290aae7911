package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// solveStructuredReference is the structured solve as it was before the
// per-row non-zero lists: every pivot search, elimination and
// back-substitution scans the full row. StructuredWorkspace.Solve must match
// it bit for bit, error class included.
func solveStructuredReference(a *Matrix, b Vector) (Vector, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows(), a.Cols())
	}
	n := a.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs %d for %d unknowns", ErrDimensionMismatch, len(b), n)
	}
	work, rhs := a.Clone(), b.Clone()
	rowNNZ := make([]int, n)
	liveRow := make([]bool, n)
	liveCol := make([]bool, n)
	colRows := make([][]int32, n)
	var order []structuredStep
	var queue []int
	for i := 0; i < n; i++ {
		liveRow[i], liveCol[i] = true, true
		for _, v := range work.RawRow(i) {
			if v != 0 {
				rowNNZ[i]++
			}
		}
	}
	for i := 0; i < n; i++ {
		for j, v := range work.RawRow(i) {
			if v != 0 {
				colRows[j] = append(colRows[j], int32(i))
			}
		}
	}
	for i := 0; i < n; i++ {
		if rowNNZ[i] <= 2 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		r := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !liveRow[r] || rowNNZ[r] > 2 {
			continue
		}
		pc := -1
		var pv float64
		row := work.RawRow(r)
		for j, v := range row {
			if v != 0 && liveCol[j] && math.Abs(v) > math.Abs(pv) {
				pc, pv = j, v
			}
		}
		if pc < 0 {
			return nil, fmt.Errorf("%w: empty row %d in presolve", ErrSingular, r)
		}
		for _, o := range colRows[pc] {
			other := int(o)
			if other == r || !liveRow[other] || work.At(other, pc) == 0 {
				continue
			}
			factor := work.At(other, pc) / pv
			orow := work.RawRow(other)
			for j, v := range row {
				if v == 0 || !liveCol[j] {
					continue
				}
				if j == pc {
					orow[j] = 0
					rowNNZ[other]--
					continue
				}
				old := orow[j]
				nw := old - factor*v
				orow[j] = nw
				if old != 0 && nw == 0 {
					rowNNZ[other]--
				} else if old == 0 && nw != 0 {
					rowNNZ[other]++
					colRows[j] = append(colRows[j], o)
				}
			}
			rhs[other] -= factor * rhs[r]
			if rowNNZ[other] <= 2 {
				queue = append(queue, other)
			}
		}
		liveRow[r] = false
		liveCol[pc] = false
		order = append(order, structuredStep{row: r, col: pc})
	}
	var coreRows, coreCols []int
	for i := 0; i < n; i++ {
		if liveRow[i] {
			coreRows = append(coreRows, i)
		}
		if liveCol[i] {
			coreCols = append(coreCols, i)
		}
	}
	if len(coreRows) != len(coreCols) {
		return nil, fmt.Errorf("%w: presolve core is %dx%d", ErrSingular, len(coreRows), len(coreCols))
	}
	x := NewVector(n)
	if k := len(coreRows); k > 0 {
		core, cb := NewMatrix(k, k), NewVector(k)
		for ci, i := range coreRows {
			for cj, j := range coreCols {
				core.Set(ci, cj, work.At(i, j))
			}
			cb[ci] = rhs[i]
		}
		f, err := Factorize(core)
		if err != nil {
			return nil, err
		}
		if err := f.SolveInPlace(cb); err != nil {
			return nil, err
		}
		for cj, j := range coreCols {
			x[j] = cb[cj]
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		st := order[k]
		row := work.RawRow(st.row)
		s := rhs[st.row]
		for j, v := range row {
			if v != 0 && j != st.col {
				s -= v * x[j]
			}
		}
		x[st.col] = s / row[st.col]
	}
	return x, nil
}

// checkMatchesReference solves a·x = b on w and with the reference and
// requires bit-identical solutions or identical errors.
func checkMatchesReference(t *testing.T, w *StructuredWorkspace, name string, a *Matrix, b Vector) {
	t.Helper()
	want, wantErr := solveStructuredReference(a, b)
	got, err := w.Solve(a, b)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() || errors.Is(err, ErrSingular) != errors.Is(wantErr, ErrSingular) {
			t.Fatalf("%s: err = %v, reference err = %v", name, err, wantErr)
		}
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v, reference %v (not bit-identical)", name, i, got[i], want[i])
		}
	}
}

func matrixOf(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := MatrixFromRows(rows)
	if err != nil {
		t.Fatalf("MatrixFromRows: %v", err)
	}
	return m
}

// TestStructuredMatchesReferencePDIPShapes covers the extended-matrix shapes
// the crossbar settles, on one warmed workspace across shape changes.
func TestStructuredMatchesReferencePDIPShapes(t *testing.T) {
	var w StructuredWorkspace
	for seed := int64(1); seed <= 6; seed++ {
		for _, sz := range [][2]int{{4, 2}, {12, 4}, {24, 8}, {24, 24}, {60, 20}} {
			r := rand.New(rand.NewSource(seed))
			a, b := buildPDIPLikeMatrix(r, sz[0], sz[1])
			checkMatchesReference(t, &w, fmt.Sprintf("seed %d m=%d n=%d", seed, sz[0], sz[1]), a, b)
		}
	}
}

// TestStructuredMatchesReferencePivotTie pins the ascending-column tie-break:
// equal-magnitude candidates resolve to the lower column, including one that
// arrived as a fill-in after the row's original non-zeros.
func TestStructuredMatchesReferencePivotTie(t *testing.T) {
	// After row 4, row 3 pivots on column 0 (|2| > |1|) and turns row 0's
	// column-0 entry into a fill-in of −1 at column 1. Row 2 then pivots on
	// column 5 and leaves row 0 with −1 at column 1 and 1 at column 4: a tie
	// the fill-in must win from its sorted position.
	a := matrixOf(t, [][]float64{
		{2, 0, 0, 0, 1, 1},
		{0, 1, 3, 0, 0, 0},
		{0, 0, 0, 0, 0, 2},
		{2, 1, 0, 0, 0, 0},
		{0, 0, 1, 4, 0, 0},
		{1, 1, 0, 1, 3, 1},
	})
	b := VectorOf(1, 2, 3, 4, 5, 6)
	var w StructuredWorkspace
	checkMatchesReference(t, &w, "fill-in tie", a, b)
	if k := slices.IndexFunc(w.order, func(s structuredStep) bool { return s.row == 0 }); k < 0 || w.order[k].col != 1 {
		t.Fatalf("row 0 pivot = %+v, want column 1 (ascending tie-break)", w.order)
	}
	// A row whose two original entries tie.
	tie := matrixOf(t, [][]float64{
		{3, 0, -3},
		{1, 2, 1},
		{1, 1, 4},
	})
	checkMatchesReference(t, &w, "original tie", tie, VectorOf(1, 2, 3))
	if w.order[0].row != 0 || w.order[0].col != 0 {
		t.Fatalf("first pivot = %+v, want row 0 column 0 (ascending tie-break)", w.order[0])
	}
}

// TestStructuredMatchesReferenceCancellation covers an exact cancellation
// that drops a three-non-zero row to one non-zero in the middle of the
// presolve, queueing it for elimination.
func TestStructuredMatchesReferenceCancellation(t *testing.T) {
	// Row 1 pivots on column 1 (|4| > |2|) with factor 1 into row 0:
	// column 0 cancels exactly (2 − 1·2 = 0), leaving row 0 with column 2
	// alone.
	a := matrixOf(t, [][]float64{
		{2, 4, 1, 0},
		{2, 4, 0, 0},
		{1, 0, 3, 5},
		{0, 1, 1, 2},
	})
	var w StructuredWorkspace
	checkMatchesReference(t, &w, "cancellation", a, VectorOf(1, -2, 3, 0.5))
	if len(w.order) < 2 || w.order[1] != (structuredStep{row: 0, col: 2}) {
		t.Fatalf("order = %+v, want row 0 eliminated on column 2 second", w.order)
	}
}

// TestStructuredMatchesReferenceRevival drives one cell through
// zero → fill-in → zero → fill-in and checks that the row's column list,
// when the row is finally eliminated, holds that column exactly once.
func TestStructuredMatchesReferenceRevival(t *testing.T) {
	// Columns: c1=0 c2=1 c3=2 J=3 K1=4 K2=5. Rows 4, 3, 2 are popped in
	// that order; each pivots on its c column (|2| > |±1|) with factor 0.5
	// into row 0, so row 0's J cell goes 0 → −0.5 → 0 → −0.5. Row 1 then
	// removes K2, row 5 removes J, and row 0 is eliminated last on K1.
	a := matrixOf(t, [][]float64{
		{1, 1, 1, 0, 3, 5},
		{0, 0, 0, 0, 0, 2},
		{0, 0, 2, 1, 0, 0},
		{0, 2, 0, -1, 0, 0},
		{2, 0, 0, 1, 0, 0},
		{0, 0, 0, 4, 1, 1},
	})
	var w StructuredWorkspace
	checkMatchesReference(t, &w, "revival", a, VectorOf(1, 2, 3, 4, 5, 6))
	if !slices.Equal(w.colRows[3][len(w.colRows[3])-2:], []int32{0, 0}) {
		t.Fatalf("column 3 rows = %v, want row 0 appended once per revival", w.colRows[3])
	}
	if last := w.order[len(w.order)-1]; last != (structuredStep{row: 0, col: 4}) {
		t.Fatalf("order = %+v, want row 0 eliminated last on column 4", w.order)
	}
	if got := w.rowCols[0]; !slices.Equal(got, []int32{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("row 0 columns = %v, want each column once in order", got)
	}
}

// TestStructuredMatchesReferenceErrors covers the empty-row and singular-core
// error paths (a zero row, a row emptied by elimination, a core whose LU hits
// a zero pivot) and the shape errors. Every presolve step retires one row and
// one column, so the core is always square.
func TestStructuredMatchesReferenceErrors(t *testing.T) {
	cases := []struct {
		name string
		a    *Matrix
	}{
		{"zero row", matrixOf(t, [][]float64{{1, 2, 3}, {0, 0, 0}, {3, 1, 2}})},
		{"emptied row", matrixOf(t, [][]float64{
			{1, 2, 0},
			{2, 4, 0},
			{1, 1, 1},
		})},
		{"singular core", matrixOf(t, [][]float64{
			{1, 2, 3},
			{2, 4, 6},
			{1, 1, 1},
		})},
	}
	var w StructuredWorkspace
	for _, tc := range cases {
		b := NewVector(tc.a.Rows())
		if _, err := solveStructuredReference(tc.a, b); !errors.Is(err, ErrSingular) {
			t.Fatalf("%s: reference err = %v, want ErrSingular", tc.name, err)
		}
		checkMatchesReference(t, &w, tc.name, tc.a, b)
	}
	checkMatchesReference(t, &w, "non-square", NewMatrix(2, 3), VectorOf(1, 1))
	checkMatchesReference(t, &w, "rhs mismatch", Identity(3), VectorOf(1, 1))
}

// TestStructuredMatchesReferenceSmallIntegers sweeps small sparse systems
// with entries in {±1, ±2}: ties, exact cancellations, revivals and
// singular cores all occur often.
func TestStructuredMatchesReferenceSmallIntegers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vals := []float64{-2, -1, 1, 2}
	var w StructuredWorkspace
	for trial := 0; trial < 3000; trial++ {
		n := 2 + r.Intn(7)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Intn(3) == 0 {
					a.Set(i, j, vals[r.Intn(len(vals))])
				}
			}
		}
		b := NewVector(n)
		for i := range b {
			b[i] = float64(r.Intn(9) - 4)
		}
		checkMatchesReference(t, &w, fmt.Sprintf("trial %d", trial), a, b)
	}
}
