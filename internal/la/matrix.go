// Package la provides the linear algebra used by the circuit simulator:
// dense row-major matrices over float64 and complex128, sparse LU
// factorization with partial or static-ordered pivoting, triangular
// solves, and a vector norm.
//
// Circuit matrices from modified nodal analysis are small (tens of rows)
// but re-factored at every Newton iteration on a sparsity pattern that
// never changes for a compiled circuit. The solvers (sparse.go) keep the
// dense row-major storage but split the work into a symbolic analysis,
// run once per pattern, and a numeric refactor that skips the
// provably-zero update and substitution work. One partial-pivot kernel
// serves both scalar types; the static-order mode is real only. The
// dense Doolittle LU they are checked against lives in dense_test.go.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization meets a pivot that is exactly
// zero or numerically negligible relative to the matrix scale.
var ErrSingular = errors.New("la: singular matrix")

// Scalar is the element type of a matrix: real for the DC operating
// point and the transient, complex for the AC and noise sweeps, where
// every frequency point solves (G + jωC)·x = b.
type Scalar interface{ float64 | complex128 }

// Dense is a dense row-major matrix.
type Dense[T Scalar] struct {
	Rows, Cols int
	Data       []T // len Rows*Cols, row-major
}

// Matrix is a dense row-major real matrix.
type Matrix = Dense[float64]

// CMatrix is a dense row-major complex matrix.
type CMatrix = Dense[complex128]

// NewMatrix returns a zeroed r×c real matrix.
func NewMatrix(r, c int) *Matrix { return newDense[float64](r, c) }

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix { return newDense[complex128](r, c) }

func newDense[T Scalar](r, c int) *Dense[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %d×%d", r, c))
	}
	return &Dense[T]{Rows: r, Cols: c, Data: make([]T, r*c)}
}

// At returns element (i,j).
func (m *Dense[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Add accumulates v into element (i,j); this is the "stamp" primitive used
// throughout MNA assembly.
func (m *Dense[T]) Add(i, j int, v T) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place, preserving the allocation.
func (m *Dense[T]) Zero() { clear(m.Data) }

// MulVec computes y = M·x.
func (m *Dense[T]) MulVec(x []T) []T {
	if len(x) != m.Cols {
		panic("la: MulVec dimension mismatch")
	}
	y := make([]T, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s T
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// String renders the matrix for debugging.
func (m *Dense[T]) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			s += fmt.Sprintf("% .6g\t", m.At(i, j))
		}
		s += "\n"
	}
	return s
}

// NormInf returns the infinity norm (max absolute entry) of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
