package la

// dense_test.go holds the dense partial-pivot LU factorizations, real and
// complex. No solver uses them: they are the oracles the sparse solvers
// are checked against (TestSparseMatchesDenseBitExact,
// TestCSparseMatchesDenseBitExact, TestOrderedMatchesDense) and the
// baselines the factor/solve benchmarks compare with.

import (
	"fmt"
	"math"
	"math/cmplx"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U with unit-diagonal L stored below the diagonal of lu and U on
// and above it.
//
// The zero value is a reusable factorization workspace: FactorInto grows
// its storage on demand and refactors in place, so a long-lived LU held
// by a solver loop (one Newton iteration, one frequency point) performs
// no heap allocation after the first call, even when successive matrices
// change size.
type LU struct {
	lu    *Matrix
	piv   []int
	signs int // +1 or -1, permutation parity for determinants
}

// Factor computes the LU decomposition of a (which is not modified).
// It returns ErrSingular when a pivot is smaller than roughly machine
// epsilon times the largest row magnitude. Hot paths that refactor at
// every iteration should hold an LU and call FactorInto instead.
func Factor(a *Matrix) (*LU, error) {
	f := &LU{}
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// ensure readies the workspace for an n×n factorization, reusing the
// existing backing storage whenever it is large enough.
func (f *LU) ensure(n int) {
	if f.lu == nil {
		f.lu = &Matrix{}
	}
	f.lu.Rows, f.lu.Cols = n, n
	if cap(f.lu.Data) < n*n {
		f.lu.Data = make([]float64, n*n)
	} else {
		f.lu.Data = f.lu.Data[:n*n]
	}
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
}

// FactorInto recomputes the factorization of a inside f's workspace,
// allocating only when the workspace must grow. a is not modified. On
// ErrSingular the workspace contents are undefined but f remains usable
// for the next FactorInto call.
func (f *LU) FactorInto(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: Factor requires square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f.ensure(n)
	lu := f.lu
	copy(lu.Data, a.Data)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	// Scale reference for singularity detection.
	maxAbs := 0.0
	for _, v := range lu.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := maxAbs * 1e-300
	if tol == 0 {
		tol = 1e-300
	}
	for k := 0; k < n; k++ {
		// Partial pivot: find max |element| in column k at/below row k.
		p := k
		pm := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if av := math.Abs(lu.At(i, k)); av > pm {
				pm, p = av, i
			}
		}
		if pm <= tol {
			return ErrSingular
		}
		if p != k {
			ri, rk := lu.Data[p*n:(p+1)*n], lu.Data[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) * inv
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			rowI := lu.Data[i*n : (i+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	f.signs = sign
	return nil
}

// Solve returns x with A·x = b. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	x := make([]float64, f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto writes the solution of A·x = b into x without allocating.
// x must not alias b (the permuted load would corrupt the right-hand
// side); b is not modified.
func (f *LU) SolveInto(x, b []float64) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("la: Solve dimension mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// Det returns det(A) from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.signs)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveSystem is a convenience wrapper: factor a and solve for b.
func SolveSystem(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// CLU is the complex analogue of LU. Like LU, the zero value is a
// reusable workspace: FactorInto refactors in place, so an AC or noise
// sweep holding one CLU allocates nothing after the first frequency.
type CLU struct {
	lu    *CMatrix
	piv   []int
	signs int
}

// CFactor computes a partial-pivot LU factorization of the complex matrix
// a (not modified). Sweeps that refactor at every frequency point should
// hold a CLU and call FactorInto instead.
func CFactor(a *CMatrix) (*CLU, error) {
	f := &CLU{}
	if err := f.FactorInto(a); err != nil {
		return nil, err
	}
	return f, nil
}

// ensure readies the workspace for an n×n factorization, reusing the
// existing backing storage whenever it is large enough.
func (f *CLU) ensure(n int) {
	if f.lu == nil {
		f.lu = &CMatrix{}
	}
	f.lu.Rows, f.lu.Cols = n, n
	if cap(f.lu.Data) < n*n {
		f.lu.Data = make([]complex128, n*n)
	} else {
		f.lu.Data = f.lu.Data[:n*n]
	}
	if cap(f.piv) < n {
		f.piv = make([]int, n)
	} else {
		f.piv = f.piv[:n]
	}
}

// FactorInto recomputes the factorization of a inside f's workspace,
// allocating only when the workspace must grow. a is not modified. On
// ErrSingular the workspace contents are undefined but f remains usable
// for the next FactorInto call.
func (f *CLU) FactorInto(a *CMatrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("la: CFactor requires square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	f.ensure(n)
	lu := f.lu
	copy(lu.Data, a.Data)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	maxAbs := 0.0
	for _, v := range lu.Data {
		if av := cmplx.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := maxAbs * 1e-300
	if tol == 0 {
		tol = 1e-300
	}
	for k := 0; k < n; k++ {
		p := k
		pm := cmplx.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if av := cmplx.Abs(lu.At(i, k)); av > pm {
				pm, p = av, i
			}
		}
		if pm <= tol {
			return ErrSingular
		}
		if p != k {
			ri, rk := lu.Data[p*n:(p+1)*n], lu.Data[k*n:(k+1)*n]
			for j := 0; j < n; j++ {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			l := lu.At(i, k) * inv
			lu.Set(i, k, l)
			if l == 0 {
				continue
			}
			rowI := lu.Data[i*n : (i+1)*n]
			rowK := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowI[j] -= l * rowK[j]
			}
		}
	}
	f.signs = sign
	return nil
}

// Solve returns x with A·x = b.
func (f *CLU) Solve(b []complex128) []complex128 {
	x := make([]complex128, f.lu.Rows)
	f.SolveInto(x, b)
	return x
}

// SolveInto writes the solution of A·x = b into x without allocating.
// x must not alias b; b is not modified.
func (f *CLU) SolveInto(x, b []complex128) {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		panic("la: Solve dimension mismatch")
	}
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// Det returns det(A).
func (f *CLU) Det() complex128 {
	d := complex(float64(f.signs), 0)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// CSolveSystem factors a and solves A·x = b in one call.
func CSolveSystem(a *CMatrix, b []complex128) ([]complex128, error) {
	f, err := CFactor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
