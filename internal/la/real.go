// Package la provides the linear algebra used by the circuit simulator:
// dense row-major real and complex matrices, sparse real and complex LU
// factorization with partial or static-ordered pivoting, triangular
// solves, determinants, and a vector norm.
//
// Circuit matrices from modified nodal analysis are small (tens of rows)
// but re-factored at every Newton iteration on a sparsity pattern that
// never changes for a compiled circuit. The solvers (sparse.go,
// csparse.go) keep the dense row-major storage but split the work into a
// symbolic analysis, run once per pattern, and a numeric refactor that
// skips the provably-zero update and substitution work. The dense
// Doolittle LU they are checked against lives in dense_test.go.
package la

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when factorization meets a pivot that is exactly
// zero or numerically negligible relative to the matrix scale.
var ErrSingular = errors.New("la: singular matrix")

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i,j); this is the "stamp" primitive used
// throughout MNA assembly.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Zero clears every element in place, preserving the allocation.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = M·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("la: MulVec dimension mismatch")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
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
