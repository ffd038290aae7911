package linalg

import (
	"fmt"
	"math"
	"slices"
)

// SolveStructured solves a·x = b exactly like SolveDense but first performs a
// sparsity-exploiting presolve: rows with at most two non-zeros are
// eliminated by exact Gaussian steps (each such elimination adds at most one
// fill-in entry per affected row), and the remaining dense core is solved by
// LU with partial pivoting. The result is algebraically identical to
// SolveDense up to floating-point rounding.
//
// The paper's extended PDIP matrix (Eq. 14a) is dominated by two-non-zero
// rows — the X/Z and Y/W complementarity rows and the Δu/Δv/Δp consistency
// rows — so this reduces an O((3n+3m+q)³) dense solve to an O((n+m)³) one,
// which is what makes the m = 1024 experiments tractable in simulation. The
// hardware, of course, solves the whole system in one analog settle;
// this routine only accelerates the simulation of that settle.
//
// The same pass that counts each row's non-zeros also lists each row's
// non-zero columns in ascending order; the pivot search, the eliminations
// and the back-substitution walk those lists instead of full rows, so the
// presolve costs O(non-zeros) and the only O(n²) work left is copying a and
// that one scan. A list keeps every column its row has held a non-zero in,
// and is ascending and duplicate-free whenever it is walked, so every cell
// sees the same operations in the same order as a full-row walk: the result
// is bit-identical to scanning whole rows.
func SolveStructured(a *Matrix, b Vector) (Vector, error) {
	var w StructuredWorkspace
	x, err := w.Solve(a, b)
	if err != nil {
		return nil, err
	}
	return x, nil
}

// structuredStep records one presolve elimination (pivot row and column).
type structuredStep struct {
	row, col int
}

// StructuredWorkspace holds the scratch storage for SolveStructured so that
// repeated solves of same-shaped systems allocate (almost) nothing. A
// workspace is not safe for concurrent use; each goroutine needs its own.
type StructuredWorkspace struct {
	work     *Matrix
	rhs      Vector
	rowNNZ   []int
	liveRow  []bool
	liveCol  []bool
	colRows  [][]int32
	rowCols  [][]int32 // per-row non-zero columns; see Solve
	unsorted []bool    // rowCols[i] has fill-ins appended out of order
	order    []structuredStep
	queue    []int
	coreRows []int
	coreCols []int
	core     *Matrix
	cb       Vector
	lu       *LU
	x        Vector
}

// prepare (re)sizes the scratch buffers for an n-unknown system, copying a
// and b into the mutable work storage.
func (w *StructuredWorkspace) prepare(a *Matrix, b Vector) {
	n := a.Rows()
	if w.work == nil || w.work.Rows() != n || w.work.Cols() != n {
		w.work = a.Clone()
		w.rhs = make(Vector, n)
		w.rowNNZ = make([]int, n)
		w.liveRow = make([]bool, n)
		w.liveCol = make([]bool, n)
		w.colRows = make([][]int32, n)
		w.rowCols = make([][]int32, n)
		w.unsorted = make([]bool, n)
		w.x = make(Vector, n)
	} else {
		copy(w.work.data, a.data)
		clear(w.rowNNZ)
		clear(w.unsorted)
		for j := 0; j < n; j++ {
			w.colRows[j] = w.colRows[j][:0]
			w.rowCols[j] = w.rowCols[j][:0]
		}
	}
	copy(w.rhs, b)
	w.order = w.order[:0]
	w.queue = w.queue[:0]
	w.coreRows = w.coreRows[:0]
	w.coreCols = w.coreCols[:0]
}

// Solve solves a·x = b (see SolveStructured for the algorithm). The returned
// vector is owned by the workspace and overwritten by the next call.
func (w *StructuredWorkspace) Solve(a *Matrix, b Vector) (Vector, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("%w: %dx%d", ErrNotSquare, a.Rows(), a.Cols())
	}
	n := a.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs %d for %d unknowns", ErrDimensionMismatch, len(b), n)
	}

	w.prepare(a, b)
	work, rhs := w.work, w.rhs
	rowNNZ, liveRow, liveCol := w.rowNNZ, w.liveRow, w.liveCol
	colRows, rowCols := w.colRows, w.rowCols

	// Column occupancy (which rows hold a non-zero in each column) and row
	// occupancy (the non-zero columns of each row), both from one scan. Kept
	// as append-only index slices rather than sets: an entry whose value has
	// since become zero is a tombstone, detected exactly at use (eliminations
	// zero the pivot column with an assignment, never arithmetic, so the test
	// against 0 is reliable). Slices iterate in insertion order, which keeps
	// the elimination sequence — and therefore the floating-point result —
	// deterministic; a map's randomized iteration order here would perturb
	// results run to run and across fabric-pool replicas. Row lists start
	// ascending; fill-ins are appended and the row is sorted and
	// de-duplicated (a cell revived after cancelling is appended again) only
	// when it becomes a pivot row, the first time its list is walked.
	for i := 0; i < n; i++ {
		liveRow[i], liveCol[i] = true, true
		for j, v := range work.RawRow(i) {
			if v != 0 {
				rowNNZ[i]++
				colRows[j] = append(colRows[j], int32(i))
				rowCols[i] = append(rowCols[i], int32(j))
			}
		}
	}

	for i := 0; i < n; i++ {
		if rowNNZ[i] <= 2 {
			w.queue = append(w.queue, i)
		}
	}

	for len(w.queue) > 0 {
		r := w.queue[len(w.queue)-1]
		w.queue = w.queue[:len(w.queue)-1]
		if !liveRow[r] || rowNNZ[r] > 2 {
			continue
		}
		// Select the pivot column: the largest-magnitude live entry.
		pc := -1
		var pv float64
		row := work.RawRow(r)
		if w.unsorted[r] {
			// Ascending order keeps the lowest column on a magnitude tie
			// and fixes the back-substitution's summation order.
			slices.Sort(rowCols[r])
			rowCols[r] = slices.Compact(rowCols[r])
		}
		for _, c := range rowCols[r] {
			j := int(c)
			if v := row[j]; v != 0 && liveCol[j] && math.Abs(v) > math.Abs(pv) {
				pc, pv = j, v
			}
		}
		if pc < 0 {
			return nil, fmt.Errorf("%w: empty row %d in presolve", ErrSingular, r)
		}

		// Eliminate the pivot column from every other live row. Tombstoned
		// entries (rows whose pivot-column value has since been zeroed) and
		// duplicate entries (a cell that cycled zero→fill-in→zero→fill-in
		// appends once per revival) both read back exactly zero, so the skip
		// makes the walk idempotent.
		for _, o := range colRows[pc] {
			other := int(o)
			if other == r || !liveRow[other] || work.At(other, pc) == 0 {
				continue
			}
			factor := work.At(other, pc) / pv
			orow := work.RawRow(other)
			for _, c := range rowCols[r] {
				j := int(c)
				v := row[j]
				if v == 0 || !liveCol[j] {
					continue
				}
				if j == pc {
					// Zero the pivot-column entry exactly; computing
					// old − factor·pv would leave rounding residue.
					orow[j] = 0
					rowNNZ[other]--
					continue
				}
				old := orow[j]
				nw := old - factor*v
				orow[j] = nw
				if old != 0 && nw == 0 {
					// Leave the colRows entry as a tombstone.
					rowNNZ[other]--
				} else if old == 0 && nw != 0 {
					rowNNZ[other]++
					colRows[j] = append(colRows[j], o)
					rowCols[other] = append(rowCols[other], c)
					w.unsorted[other] = true
				}
			}
			rhs[other] -= factor * rhs[r]
			if rowNNZ[other] <= 2 {
				w.queue = append(w.queue, other)
			}
		}

		liveRow[r] = false
		liveCol[pc] = false
		w.order = append(w.order, structuredStep{row: r, col: pc})
	}

	// Dense core solve over the remaining live rows/columns.
	for i := 0; i < n; i++ {
		if liveRow[i] {
			w.coreRows = append(w.coreRows, i)
		}
		if liveCol[i] {
			w.coreCols = append(w.coreCols, i)
		}
	}
	if len(w.coreRows) != len(w.coreCols) {
		return nil, fmt.Errorf("%w: presolve core is %dx%d", ErrSingular, len(w.coreRows), len(w.coreCols))
	}

	x := w.x
	clear(x)
	if k := len(w.coreRows); k > 0 {
		if w.core == nil || w.core.Rows() != k || w.core.Cols() != k {
			w.core = NewMatrix(k, k)
			w.cb = make(Vector, k)
		}
		core, cb := w.core, w.cb
		for ci, i := range w.coreRows {
			row := work.RawRow(i)
			for cj, j := range w.coreCols {
				core.Set(ci, cj, row[j])
			}
			cb[ci] = rhs[i]
		}
		f, err := FactorizeInto(w.lu, core)
		if err != nil {
			return nil, err
		}
		w.lu = f
		if err := f.SolveInPlace(cb); err != nil {
			return nil, err
		}
		for cj, j := range w.coreCols {
			x[j] = cb[cj]
		}
	}

	// Back-substitute the presolve eliminations in reverse order.
	for k := len(w.order) - 1; k >= 0; k-- {
		st := w.order[k]
		row := work.RawRow(st.row)
		s := rhs[st.row]
		for _, c := range rowCols[st.row] {
			j := int(c)
			if v := row[j]; v != 0 && j != st.col {
				s -= v * x[j]
			}
		}
		x[st.col] = s / row[st.col]
	}
	return x, nil
}
