// sparse.go is the structure-exploiting solver core: MNA systems are
// factored millions of times per synthesis study on a sparsity pattern
// that never changes for the lifetime of a compiled circuit, so the
// pattern analysis — which positions can ever be nonzero, where fill-in
// lands, which update loops can be skipped — is hoisted out of the hot
// loop and done once ("symbolic factorization"). Each Newton iteration
// or frequency point then runs a numeric-only refactor that touches only
// the recorded positions.
//
// Two symbolic modes are offered:
//
//   - Analyze: keeps the dense path's partial pivoting intact and bounds
//     the fill over every pivot sequence the numeric values could select
//     (the merge closure below). Because the skipped updates are
//     provably zero on both sides, NumericFactor/SolveInto produce
//     results bit-identical to the dense LU — the property the
//     simulator's determinism contract depends on. One kernel, pivotLU,
//     serves both scalar types: SparseLU (real) and CSparseLU (complex).
//
//   - AnalyzeOrdered: picks a static Markowitz pivot order on the
//     pattern (KLU-style), records the exact fill for that order, and
//     factors with no pivot search at all. Fastest, but a different
//     elimination order means results agree with the dense path only to
//     round-off, and a numerically degraded pivot aborts with
//     ErrZeroPivot so the caller can fall back to partial pivoting.
//     Only SparseLU offers it.
package la

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"slices"
)

// ErrZeroPivot is returned by the static-order (AnalyzeOrdered) numeric
// factorization when a pivot chosen symbolically turns out numerically
// negligible. Callers should fall back to a partial-pivoting factor.
var ErrZeroPivot = errors.New("la: zero pivot under static-order factorization")

// Pattern is a fixed n×n sparsity pattern: the set of positions that can
// ever hold a nonzero. It is the input to the symbolic analysis; marking
// is idempotent, so assemblers can simply mirror their stamp calls.
type Pattern struct {
	n     int
	words int      // uint64 words per row
	rows  []uint64 // n*words bitset, row-major
}

// NewPattern returns an empty n×n pattern.
func NewPattern(n int) *Pattern {
	if n < 0 {
		panic(fmt.Sprintf("la: invalid pattern size %d", n))
	}
	w := (n + 63) >> 6
	return &Pattern{n: n, words: w, rows: make([]uint64, n*w)}
}

// PatternOf marks every nonzero of a. Structural zeros that merely
// happen to be nonzero-free in this particular matrix are not captured;
// assemblers whose values can cancel should Mark positions explicitly.
func PatternOf(a *Matrix) *Pattern {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("la: PatternOf requires square matrix, got %d×%d", a.Rows, a.Cols))
	}
	p := NewPattern(a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != 0 {
				p.Mark(i, j)
			}
		}
	}
	return p
}

// Mark records position (i,j) as potentially nonzero. Negative indices
// are ignored so MNA assemblers can pass ground (-1) rows unguarded.
func (p *Pattern) Mark(i, j int) {
	if i < 0 || j < 0 {
		return
	}
	p.rows[i*p.words+(j>>6)] |= 1 << uint(j&63)
}

// NNZ counts the marked positions.
func (p *Pattern) NNZ() int {
	nnz := 0
	for _, w := range p.rows {
		nnz += bits.OnesCount64(w)
	}
	return nnz
}

// flatIdx returns the flat (row-major) indices of the marked positions,
// sorted ascending.
func (p *Pattern) flatIdx() []int32 {
	idx := make([]int32, 0, p.NNZ())
	for i := 0; i < p.n; i++ {
		row := p.rows[i*p.words : (i+1)*p.words]
		for wi, w := range row {
			for ; w != 0; w &= w - 1 {
				j := wi<<6 | bits.TrailingZeros64(w)
				idx = append(idx, int32(i*p.n+j))
			}
		}
	}
	return idx
}

// Symbolic is a completed symbolic factorization of a Pattern: the
// static structure a SparseLU or CSparseLU consults on every numeric
// refactor. It is immutable after analysis and safe to share across
// factorization workspaces and goroutines.
type Symbolic struct {
	n       int
	ordered bool
	nnzIdx  []int32 // flat indices of the input pattern (scatter, max-abs scan)
	mulPtr  []int32 // CSR row offsets into nnzIdx/mulCol for MulVecInto
	mulCol  []int32 // column of each nnzIdx entry (avoids div/mod per entry)

	// Partial-pivot (Analyze) mode: the initial row and column patterns
	// as bitsets. The numeric factorization evolves working copies
	// alongside the values (fill under dynamic pivoting depends on the
	// pivot sequence the values select, so the live pattern is tracked
	// at run time; a static bound over all pivot sequences degenerates
	// to near-dense on chain-structured MNA systems). initColPat is the
	// transpose of initPat: bit i of word row j says row i has a live
	// entry in column j — the index the pivot scan iterates.
	words      int
	initPat    []uint64
	initColPat []uint64

	// Static-order (AnalyzeOrdered) mode, all in permuted coordinates:
	// position k eliminates original row rowOrder[k] / column colOrder[k].
	// The per-step/per-row index lists are stored flattened (CSR-style
	// ptr+idx pairs) so the numeric factor and solve loops walk one flat
	// array instead of chasing per-row slice headers.
	rowOrder, colOrder []int32
	scatterDst         []int32 // permuted flat index per nnzIdx entry
	lrowPtr, lrowIdx   []int32 // per step k: rows i>k with structural L(i,k)
	ucolPtr, ucolIdx   []int32 // per step k: columns j>k of the pivot row
	lpatPtr, lpatIdx   []int32 // per row i: its L columns, for forward solves
	fillIdx            []int32 // every permuted flat position the factor touches
}

// Analyze prepares the pivot-exact symbolic analysis: it captures the
// input pattern as row bitsets plus a flat nonzero index, which the
// numeric factorization evolves as its own live fill record while it
// pivots exactly like the dense path. NumericFactor and SolveInto driven
// by this analysis are bit-identical to the dense LU (the update and
// substitution work they skip is exact zeros on both sides).
func Analyze(p *Pattern) *Symbolic {
	n := p.n
	s := &Symbolic{n: n, words: p.words, nnzIdx: p.flatIdx()}
	s.initPat = make([]uint64, len(p.rows))
	copy(s.initPat, p.rows)
	s.initColPat = make([]uint64, len(p.rows))
	for _, idx := range s.nnzIdx {
		i, j := int(idx)/n, int(idx)%n
		s.initColPat[j*p.words+(i>>6)] |= 1 << uint(i&63)
	}
	s.initMulIdx()
	return s
}

// initMulIdx builds the CSR view of nnzIdx (row offsets + per-entry
// column) that MulVecInto iterates. nnzIdx is sorted row-major, so the
// CSR walk visits entries in exactly the same order as a flat scan —
// the accumulation order, and hence the result, is unchanged.
func (s *Symbolic) initMulIdx() {
	n := s.n
	s.mulPtr = make([]int32, n+1)
	s.mulCol = make([]int32, len(s.nnzIdx))
	row := 0
	for t, idx := range s.nnzIdx {
		i, j := int(idx)/n, int(idx)%n
		for row < i {
			row++
			s.mulPtr[row] = int32(t)
		}
		s.mulCol[t] = int32(j)
	}
	for row < n {
		row++
		s.mulPtr[row] = int32(len(s.nnzIdx))
	}
}

// AnalyzeOrdered picks a static pivot order by Markowitz cost on the
// pattern — at each step the structural entry (r,c) minimizing
// (nnz(row r)−1)·(nnz(col c)−1), ties broken by lowest row then column —
// records the exact fill for that order, and returns a Symbolic whose
// numeric factorization runs with no pivot search. It fails when the
// pattern is structurally singular. The numeric factor aborts with
// ErrZeroPivot when a chosen pivot is numerically negligible; callers
// then fall back to a partial-pivoting factorization.
func AnalyzeOrdered(p *Pattern) (*Symbolic, error) {
	n, w := p.n, p.words
	s := &Symbolic{n: n, ordered: true, nnzIdx: p.flatIdx()}

	rowPat := make([]uint64, len(p.rows))
	copy(rowPat, p.rows)
	// Column pattern mirror: colPat[c] = set of rows with (r,c) marked.
	colPat := make([]uint64, n*w)
	for i := 0; i < n; i++ {
		row := rowPat[i*w : (i+1)*w]
		for wi, word := range row {
			for ; word != 0; word &= word - 1 {
				c := wi<<6 | bits.TrailingZeros64(word)
				colPat[c*w+(i>>6)] |= 1 << uint(i&63)
			}
		}
	}
	activeRow := make([]bool, n)
	activeCol := make([]bool, n)
	for i := range activeRow {
		activeRow[i], activeCol[i] = true, true
	}
	countActive := func(set []uint64, active []bool) int {
		c := 0
		for wi, word := range set {
			for ; word != 0; word &= word - 1 {
				if active[wi<<6|bits.TrailingZeros64(word)] {
					c++
				}
			}
		}
		return c
	}

	s.rowOrder = make([]int32, n)
	s.colOrder = make([]int32, n)
	lrows := make([][]int32, n)
	ucols := make([][]int32, n)
	lpat := make([][]int32, n)
	posOfRow := make([]int32, n)
	fillNNZ := 0
	for k := 0; k < n; k++ {
		// Diagonal entries are preferred unconditionally (standard
		// circuit-simulator practice): MNA node rows are diagonally
		// dominant, so diagonal pivots bound element growth, and only
		// the voltage-branch rows — whose diagonal is structurally
		// zero — force off-diagonal pivots.
		bestR, bestC, bestCost := -1, -1, 0
		for r := 0; r < n; r++ {
			if !activeRow[r] || !activeCol[r] || rowPat[r*w+(r>>6)]&(1<<uint(r&63)) == 0 {
				continue
			}
			nr := countActive(rowPat[r*w:(r+1)*w], activeCol)
			nc := countActive(colPat[r*w:(r+1)*w], activeRow)
			cost := (nr - 1) * (nc - 1)
			if bestR < 0 || cost < bestCost {
				bestR, bestC, bestCost = r, r, cost
			}
		}
		if bestR < 0 {
			for r := 0; r < n; r++ {
				if !activeRow[r] {
					continue
				}
				nr := countActive(rowPat[r*w:(r+1)*w], activeCol)
				if nr == 0 {
					continue
				}
				row := rowPat[r*w : (r+1)*w]
				for wi, word := range row {
					for ; word != 0; word &= word - 1 {
						c := wi<<6 | bits.TrailingZeros64(word)
						if !activeCol[c] {
							continue
						}
						nc := countActive(colPat[c*w:(c+1)*w], activeRow)
						cost := (nr - 1) * (nc - 1)
						if bestR < 0 || cost < bestCost {
							bestR, bestC, bestCost = r, c, cost
						}
					}
				}
			}
		}
		if bestR < 0 {
			return nil, fmt.Errorf("la: pattern structurally singular at elimination step %d: %w", k, ErrSingular)
		}
		s.rowOrder[k], s.colOrder[k] = int32(bestR), int32(bestC)
		posOfRow[bestR] = int32(k)
		activeRow[bestR], activeCol[bestC] = false, false

		// Record the pivot row's active columns (U structure at step k,
		// in original column ids for now) and the rows it updates.
		pivRow := rowPat[bestR*w : (bestR+1)*w]
		var uOrig []int32
		for wi, word := range pivRow {
			for ; word != 0; word &= word - 1 {
				c := wi<<6 | bits.TrailingZeros64(word)
				if activeCol[c] {
					uOrig = append(uOrig, int32(c))
				}
			}
		}
		col := colPat[bestC*w : (bestC+1)*w]
		var lOrigRows []int32
		for wi, word := range col {
			for ; word != 0; word &= word - 1 {
				r := wi<<6 | bits.TrailingZeros64(word)
				if activeRow[r] {
					lOrigRows = append(lOrigRows, int32(r))
				}
			}
		}
		// Fill: each updated row absorbs the pivot row's active columns.
		for _, r := range lOrigRows {
			row := rowPat[int(r)*w : int(r+1)*w]
			for wi := range row {
				row[wi] |= pivRow[wi]
			}
			// Mirror into column patterns.
			for _, c := range uOrig {
				colPat[int(c)*w+(int(r)>>6)] |= 1 << uint(int(r)&63)
			}
		}
		ucols[k] = uOrig     // original ids; remapped below
		lrows[k] = lOrigRows // original ids; remapped below
		fillNNZ += len(uOrig) + 1 + len(lOrigRows)
	}

	// Remap the recorded structure into permuted coordinates.
	posOfCol := make([]int32, n)
	for k, c := range s.colOrder {
		posOfCol[c] = int32(k)
	}
	for k := 0; k < n; k++ {
		u := ucols[k]
		for i, c := range u {
			u[i] = posOfCol[c]
		}
		slices.Sort(u)
		lr := lrows[k]
		for i, r := range lr {
			lr[i] = posOfRow[r]
		}
		slices.Sort(lr)
		for _, i := range lr {
			lpat[i] = append(lpat[i], int32(k))
		}
	}
	// Flatten the per-step/per-row lists to CSR and record every permuted
	// position the numeric factor touches — the diagonal, each step's U
	// row segment, and each step's L column segment cover all of L+U
	// exactly once — so the factor zeroes fillNNZ slots, not n².
	s.lrowPtr, s.lrowIdx = flattenCSR(lrows)
	s.ucolPtr, s.ucolIdx = flattenCSR(ucols)
	s.lpatPtr, s.lpatIdx = flattenCSR(lpat)
	s.fillIdx = make([]int32, 0, fillNNZ)
	for k := 0; k < n; k++ {
		s.fillIdx = append(s.fillIdx, int32(k*n+k))
		for _, j := range ucols[k] {
			s.fillIdx = append(s.fillIdx, int32(k*n+int(j)))
		}
		for _, i := range lrows[k] {
			s.fillIdx = append(s.fillIdx, int32(int(i)*n+k))
		}
	}
	s.scatterDst = make([]int32, len(s.nnzIdx))
	for t, idx := range s.nnzIdx {
		i, j := int(idx)/n, int(idx)%n
		s.scatterDst[t] = posOfRow[i]*int32(n) + posOfCol[j]
	}
	s.initMulIdx()
	return s, nil
}

// flattenCSR packs a ragged [][]int32 into ptr/idx arrays: row k's
// entries live in idx[ptr[k]:ptr[k+1]].
func flattenCSR(rows [][]int32) (ptr, idx []int32) {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	ptr = make([]int32, len(rows)+1)
	idx = make([]int32, 0, total)
	for k, r := range rows {
		idx = append(idx, r...)
		ptr[k+1] = int32(len(idx))
	}
	return ptr, idx
}

// pivotLU is the partial-pivot numeric factorization of an Analyze
// analysis, written once over the scalar type: SparseLU embeds the real
// instantiation and CSparseLU the complex one. It pivots exactly like
// the dense LU, so on a matrix whose nonzeros lie inside the analyzed
// pattern the factor and solution are bit-identical to it.
type pivotLU[T Scalar] struct {
	sym    *Symbolic
	lu     *Dense[T]
	piv    []int
	rowPat []uint64 // live U-side pattern per row position, swapped with rows
	colPat []uint64 // transpose: live row positions per column
	lPat   []uint64 // per position: columns holding a nonzero multiplier
	ucols  []int32  // per-step scratch: live columns of the pivot row
}

// newPivotLU allocates all the storage a workspace for sym needs, so
// NumericFactor and SolveInto never allocate. An AnalyzeOrdered analysis
// needs only the factor array.
func newPivotLU[T Scalar](sym *Symbolic) pivotLU[T] {
	n := sym.n
	f := pivotLU[T]{sym: sym, lu: newDense[T](n, n), piv: make([]int, n)}
	if !sym.ordered {
		f.rowPat = make([]uint64, len(sym.initPat))
		f.colPat = make([]uint64, len(sym.initPat))
		f.lPat = make([]uint64, len(sym.initPat))
		f.ucols = make([]int32, 0, n)
	}
	return f
}

// checkSize reports an n×n analysis applied to a matrix of another shape.
func (s *Symbolic) checkSize(rows, cols int) error {
	if rows != s.n || cols != s.n {
		return fmt.Errorf("la: NumericFactor size mismatch: analysis %d, matrix %d×%d", s.n, rows, cols)
	}
	return nil
}

// NumericFactor refactors a — whose nonzeros must lie inside the
// analyzed pattern — reusing the workspace, with the dense path's
// partial pivoting. a is not modified.
func (f *pivotLU[T]) NumericFactor(a *Dense[T]) error {
	s := f.sym
	if err := s.checkSize(a.Rows, a.Cols); err != nil {
		return err
	}
	copy(f.lu.Data, a.Data)
	copy(f.rowPat, s.initPat)
	copy(f.colPat, s.initColPat)
	clear(f.lPat)
	for i := range f.piv {
		f.piv[i] = i
	}
	// Scale reference for singularity detection: identical to the dense
	// path's full scan because off-pattern entries are exactly zero.
	tol := maxAbs(f.lu.Data, s.nnzIdx) * 1e-300
	if tol == 0 {
		tol = 1e-300
	}
	if s.words == 1 {
		return f.factorW1(tol)
	}
	return f.factorWords(tol)
}

// maxAbs returns the largest magnitude among data's entries at idx, with
// the scalar type switched once per call (once per factor).
func maxAbs[T Scalar](data []T, idx []int32) float64 {
	m := 0.0
	switch d := any(data).(type) {
	case []float64:
		for _, i := range idx {
			if av := math.Abs(d[i]); av > m {
				m = av
			}
		}
	case []complex128:
		for _, i := range idx {
			if av := cmplx.Abs(d[i]); av > m {
				m = av
			}
		}
	}
	return m
}

// factorWords is the multi-word (n > 64) partial-pivot elimination.
func (f *pivotLU[T]) factorWords(tol float64) error {
	n, w := f.sym.n, f.sym.words
	data := f.lu.Data
	rowPat, colPat, lPat, piv := f.rowPat, f.colPat, f.lPat, f.piv
	for k := 0; k < n; k++ {
		// Pivot scan with the dense path's decisions: rows without a
		// live entry in column k hold an exact zero, which can never win
		// the strict comparison. The live row positions of column k are
		// one word iteration of its transpose pattern — ascending, so
		// ties resolve to the same first maximum as the dense scan. The
		// pivot sequence, and with it bit-identity, depends on |·| being
		// exactly math.Abs or cmplx.Abs, so the scalar type is switched
		// here once per column, never per element, and without a call
		// that would spill the loop state.
		ck := colPat[k*w : (k+1)*w]
		startW := (k + 1) >> 6
		bmask := ^uint64(0) << uint((k+1)&63)
		p, pm := k, 0.0
		switch d := any(data).(type) {
		case []float64:
			pm = math.Abs(d[k*n+k])
			for wi := startW; wi < w; wi++ {
				word := ck[wi]
				if wi == startW {
					word &= bmask
				}
				for ; word != 0; word &= word - 1 {
					i := wi<<6 | bits.TrailingZeros64(word)
					if av := math.Abs(d[i*n+k]); av > pm {
						pm, p = av, i
					}
				}
			}
		case []complex128:
			pm = cmplx.Abs(d[k*n+k])
			for wi := startW; wi < w; wi++ {
				word := ck[wi]
				if wi == startW {
					word &= bmask
				}
				for ; word != 0; word &= word - 1 {
					i := wi<<6 | bits.TrailingZeros64(word)
					if av := cmplx.Abs(d[i*n+k]); av > pm {
						pm, p = av, i
					}
				}
			}
		}
		if pm <= tol {
			return ErrSingular
		}
		if p != k {
			ri, rk := data[p*n:(p+1)*n], data[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			pi, pk := rowPat[p*w:(p+1)*w], rowPat[k*w:(k+1)*w]
			for j := range pi {
				pi[j], pk[j] = pk[j], pi[j]
			}
			li, lk := lPat[p*w:(p+1)*w], lPat[k*w:(k+1)*w]
			for j := range li {
				li[j], lk[j] = lk[j], li[j]
			}
			// Transpose maintenance: swapping row positions k and p
			// swaps bits k and p of every column pattern. Columns where
			// neither row is live hold two zero bits, so only the union
			// of the two (already swapped) row patterns needs fixing;
			// columns below k are never consulted again.
			kw, kb := k>>6, uint64(1)<<uint(k&63)
			pw2, pb := p>>6, uint64(1)<<uint(p&63)
			sw := k >> 6
			smask := ^uint64(0) << uint(k&63)
			for wi := sw; wi < w; wi++ {
				union := pi[wi] | pk[wi]
				if wi == sw {
					union &= smask
				}
				for ; union != 0; union &= union - 1 {
					j := wi<<6 | bits.TrailingZeros64(union)
					cw := colPat[j*w:]
					if (cw[kw]>>uint(k&63))&1 != (cw[pw2]>>uint(p&63))&1 {
						cw[kw] ^= kb
						cw[pw2] ^= pb
					}
				}
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		inv := 1 / data[k*n+k]
		rowK := data[k*n : (k+1)*n]
		patK := rowPat[k*w : (k+1)*w]
		// Live columns of the pivot row beyond k: the only positions a
		// row update can change. The dense path's remaining j-updates
		// subtract exact zeros.
		uc := f.ucols[:0]
		for wi := startW; wi < w; wi++ {
			word := patK[wi]
			if wi == startW {
				word &= bmask
			}
			for ; word != 0; word &= word - 1 {
				uc = append(uc, int32(wi<<6|bits.TrailingZeros64(word)))
			}
		}
		// Update rows: exactly the live positions of column k below the
		// (post-swap) diagonal. Rows with a structural zero there would
		// receive a dead ±0 multiplier in the dense loop that no later
		// factor or solve step reads; they are skipped entirely.
		for wi := startW; wi < w; wi++ {
			word := ck[wi]
			if wi == startW {
				word &= bmask
			}
			for ; word != 0; word &= word - 1 {
				i := wi<<6 | bits.TrailingZeros64(word)
				l := data[i*n+k] * inv
				data[i*n+k] = l
				if l == 0 {
					continue
				}
				lPat[i*w+(k>>6)] |= 1 << uint(k&63)
				rowI := data[i*n : (i+1)*n]
				for _, j := range uc {
					rowI[j] -= l * rowK[j]
				}
				// The updated row's live pattern absorbs the pivot
				// row's; fill-in (bits newly set beyond k) is mirrored
				// into the column patterns.
				patI := rowPat[i*w : (i+1)*w]
				iw, ib := i>>6, uint64(1)<<uint(i&63)
				for wi2 := 0; wi2 < startW; wi2++ {
					patI[wi2] |= patK[wi2]
				}
				for wi2 := startW; wi2 < w; wi2++ {
					nb := patK[wi2] &^ patI[wi2]
					if wi2 == startW {
						nb &= bmask
					}
					patI[wi2] |= patK[wi2]
					for ; nb != 0; nb &= nb - 1 {
						j := wi2<<6 | bits.TrailingZeros64(nb)
						colPat[j*w+iw] |= ib
					}
				}
			}
		}
	}
	return nil
}

// factorW1 is the single-word (n ≤ 64) specialization of the
// partial-pivot elimination: every per-row pattern is one uint64, so the
// word loops and strided bitset indexing of factorWords collapse to
// scalar mask operations. Semantics are identical — bit-for-bit the same
// decisions and arithmetic as factorWords and the dense LU.
func (f *pivotLU[T]) factorW1(tol float64) error {
	n := f.sym.n
	data := f.lu.Data
	rowPat, colPat, lPat, piv := f.rowPat, f.colPat, f.lPat, f.piv
	for k := 0; k < n; k++ {
		kbit := uint64(1) << uint(k)
		above := ^uint64(0) << uint(k+1) // zero for k = 63 by Go shift semantics
		p, pm := k, 0.0
		switch d := any(data).(type) {
		case []float64:
			pm = math.Abs(d[k*n+k])
			for word := colPat[k] & above; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				if av := math.Abs(d[i*n+k]); av > pm {
					pm, p = av, i
				}
			}
		case []complex128:
			pm = cmplx.Abs(d[k*n+k])
			for word := colPat[k] & above; word != 0; word &= word - 1 {
				i := bits.TrailingZeros64(word)
				if av := cmplx.Abs(d[i*n+k]); av > pm {
					pm, p = av, i
				}
			}
		}
		if pm <= tol {
			return ErrSingular
		}
		if p != k {
			ri, rk := data[p*n:(p+1)*n], data[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			rowPat[k], rowPat[p] = rowPat[p], rowPat[k]
			lPat[k], lPat[p] = lPat[p], lPat[k]
			pbit := uint64(1) << uint(p)
			for union := (rowPat[k] | rowPat[p]) & (^uint64(0) << uint(k)); union != 0; union &= union - 1 {
				j := bits.TrailingZeros64(union)
				cw := colPat[j]
				if (cw>>uint(k))&1 != (cw>>uint(p))&1 {
					colPat[j] = cw ^ (kbit | pbit)
				}
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		inv := 1 / data[k*n+k]
		rowK := data[k*n : (k+1)*n]
		patK := rowPat[k]
		uc := f.ucols[:0]
		for word := patK & above; word != 0; word &= word - 1 {
			uc = append(uc, int32(bits.TrailingZeros64(word)))
		}
		for word := colPat[k] & above; word != 0; word &= word - 1 {
			i := bits.TrailingZeros64(word)
			l := data[i*n+k] * inv
			data[i*n+k] = l
			if l == 0 {
				continue
			}
			lPat[i] |= kbit
			rowI := data[i*n : (i+1)*n]
			for _, j := range uc {
				rowI[j] -= l * rowK[j]
			}
			ibit := uint64(1) << uint(i)
			for nb := (patK &^ rowPat[i]) & above; nb != 0; nb &= nb - 1 {
				colPat[bits.TrailingZeros64(nb)] |= ibit
			}
			rowPat[i] |= patK
		}
	}
	return nil
}

// SolveInto writes the solution of A·x = b into x without allocating.
// x must not alias b; b is not modified. The result is bit-identical to
// the dense LU's SolveInto.
func (f *pivotLU[T]) SolveInto(x, b []T) {
	s := f.sym
	n, w := s.n, s.words
	if len(b) != n || len(x) != n {
		panic("la: Solve dimension mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	if w == 1 {
		f.solveW1(x)
		return
	}
	data := f.lu.Data
	// Forward substitution over the recorded nonzero multipliers (all
	// below the diagonal by construction); the dense path's remaining
	// terms subtract exact zeros.
	for i := 1; i < n; i++ {
		row := data[i*n : (i+1)*n]
		acc := x[i]
		for wi, word := range f.lPat[i*w : (i+1)*w] {
			for ; word != 0; word &= word - 1 {
				k := wi<<6 | bits.TrailingZeros64(word)
				acc -= row[k] * x[k]
			}
		}
		x[i] = acc
	}
	// Back substitution over the live U pattern of each row.
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		acc := x[i]
		pw := f.rowPat[i*w : (i+1)*w]
		startW := (i + 1) >> 6
		for wi := startW; wi < w; wi++ {
			word := pw[wi]
			if wi == startW {
				word &= ^uint64(0) << uint((i+1)&63)
			}
			for ; word != 0; word &= word - 1 {
				j := wi<<6 | bits.TrailingZeros64(word)
				acc -= row[j] * x[j]
			}
		}
		x[i] = acc / row[i]
	}
}

// solveW1 is the single-word specialization of the substitutions, on
// the permuted right-hand side already loaded into x.
func (f *pivotLU[T]) solveW1(x []T) {
	n := f.sym.n
	data := f.lu.Data
	for i := 1; i < n; i++ {
		row := data[i*n : (i+1)*n]
		acc := x[i]
		for word := f.lPat[i]; word != 0; word &= word - 1 {
			k := bits.TrailingZeros64(word)
			acc -= row[k] * x[k]
		}
		x[i] = acc
	}
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		acc := x[i]
		for word := f.rowPat[i] & (^uint64(0) << uint(i+1)); word != 0; word &= word - 1 {
			j := bits.TrailingZeros64(word)
			acc -= row[j] * x[j]
		}
		x[i] = acc / row[i]
	}
}

// SparseLU is the real numeric factorization workspace bound to a
// Symbolic analysis: the shared partial-pivot kernel for Analyze, the
// static-order elimination for AnalyzeOrdered. NumericFactor refactors
// in place with zero heap allocation; one SparseLU per solver loop,
// reused across iterations, is the intended usage. Not safe for
// concurrent use (share the Symbolic, not the workspace).
type SparseLU struct {
	pivotLU[float64]
	xp []float64 // permuted scratch for the static-order solve
}

// NewSparseLU returns a factorization workspace for the analysis. All
// storage is allocated here, so NumericFactor and SolveInto never
// allocate.
func NewSparseLU(sym *Symbolic) *SparseLU {
	f := &SparseLU{pivotLU: newPivotLU[float64](sym)}
	if sym.ordered {
		f.xp = make([]float64, sym.n)
	}
	return f
}

// NumericFactor refactors a — whose nonzeros must lie inside the
// analyzed pattern — reusing the workspace. In partial-pivot mode the
// result is bit-identical to the dense LU on the same matrix; in
// static-order mode a numerically negligible pivot aborts with
// ErrZeroPivot. a is not modified.
func (f *SparseLU) NumericFactor(a *Matrix) error {
	if !f.sym.ordered {
		return f.pivotLU.NumericFactor(a)
	}
	if err := f.sym.checkSize(a.Rows, a.Cols); err != nil {
		return err
	}
	return f.factorOrdered(a)
}

// factorOrdered runs the static-order elimination: scatter into permuted
// positions, then eliminate along the precomputed structure with no
// pivot search.
func (f *SparseLU) factorOrdered(a *Matrix) error {
	s := f.sym
	n := s.n
	data := f.lu.Data
	// Only the recorded L+U positions are ever read or written; zeroing
	// just those beats wiping the whole n² slab every refactor.
	for _, idx := range s.fillIdx {
		data[idx] = 0
	}
	maxAbs := 0.0
	for t, idx := range s.nnzIdx {
		v := a.Data[idx]
		data[s.scatterDst[t]] = v
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := maxAbs * 1e-12 // static order keeps no pivot search; demand headroom
	if tol == 0 {
		tol = 1e-300
	}
	for k := 0; k < n; k++ {
		pv := data[k*n+k]
		if math.Abs(pv) <= tol {
			return fmt.Errorf("la: step %d pivot %.3g below threshold %.3g: %w", k, pv, tol, ErrZeroPivot)
		}
		inv := 1 / pv
		rowK := data[k*n : (k+1)*n]
		uc := s.ucolIdx[s.ucolPtr[k]:s.ucolPtr[k+1]]
		for _, ii := range s.lrowIdx[s.lrowPtr[k]:s.lrowPtr[k+1]] {
			i := int(ii)
			l := data[i*n+k] * inv
			data[i*n+k] = l
			if l == 0 {
				continue
			}
			rowI := data[i*n : (i+1)*n]
			for _, j := range uc {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	return nil
}

// SolveInto writes the solution of A·x = b into x without allocating.
// x must not alias b; b is not modified. In partial-pivot mode the
// result is bit-identical to the dense LU's SolveInto.
func (f *SparseLU) SolveInto(x, b []float64) {
	s := f.sym
	if !s.ordered {
		f.pivotLU.SolveInto(x, b)
		return
	}
	n := s.n
	if len(b) != n || len(x) != n {
		panic("la: Solve dimension mismatch")
	}
	data := f.lu.Data
	xp := f.xp
	for i := 0; i < n; i++ {
		xp[i] = b[s.rowOrder[i]]
	}
	for i := 1; i < n; i++ {
		row := data[i*n : (i+1)*n]
		acc := xp[i]
		for _, k := range s.lpatIdx[s.lpatPtr[i]:s.lpatPtr[i+1]] {
			acc -= row[k] * xp[k]
		}
		xp[i] = acc
	}
	for i := n - 1; i >= 0; i-- {
		row := data[i*n : (i+1)*n]
		acc := xp[i]
		for _, j := range s.ucolIdx[s.ucolPtr[i]:s.ucolPtr[i+1]] {
			acc -= row[j] * xp[j]
		}
		xp[i] = acc / row[i]
	}
	for i := 0; i < n; i++ {
		x[s.colOrder[i]] = xp[i]
	}
}

// CSparseLU is the complex partial-pivot workspace for the AC and noise
// sweeps, which refactor (G + jωC) at every frequency point on a fixed
// pattern: the same kernel as SparseLU's partial-pivot mode, so results
// are bit-identical to the dense complex LU. The static-order mode
// exists for the real Newton path; the sweeps keep dynamic pivoting
// because ω rescales the entries at every point.
type CSparseLU struct{ pivotLU[complex128] }

// NewCSparseLU returns a complex factorization workspace for sym, which
// must come from Analyze (not AnalyzeOrdered). All storage is allocated
// here, so NumericFactor and SolveInto never allocate.
func NewCSparseLU(sym *Symbolic) *CSparseLU {
	if sym.ordered {
		panic("la: CSparseLU requires a partial-pivot (Analyze) symbolic analysis")
	}
	return &CSparseLU{newPivotLU[complex128](sym)}
}

// MulVecInto computes y = A·x over the analyzed pattern only (off-
// pattern entries of a are zero by contract). Used by the modified-
// Newton residual path, where a dense mat-vec would cost as much as the
// sparse refactor it is meant to avoid.
func (s *Symbolic) MulVecInto(y []float64, a *Matrix, x []float64) {
	n := s.n
	if len(y) != n || len(x) != n || a.Rows != n || a.Cols != n {
		panic("la: MulVecInto dimension mismatch")
	}
	data := a.Data
	for i := 0; i < n; i++ {
		acc := 0.0
		for t := s.mulPtr[i]; t < s.mulPtr[i+1]; t++ {
			acc += data[s.nnzIdx[t]] * x[s.mulCol[t]]
		}
		y[i] = acc
	}
}
