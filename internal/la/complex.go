package la

import "fmt"

// CMatrix is a dense row-major complex matrix used by the AC analysis,
// where every frequency point solves (G + jωC)·x = b.
type CMatrix struct {
	Rows, Cols int
	Data       []complex128
}

// NewCMatrix returns a zeroed r×c complex matrix.
func NewCMatrix(r, c int) *CMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("la: invalid dimensions %d×%d", r, c))
	}
	return &CMatrix{Rows: r, Cols: c, Data: make([]complex128, r*c)}
}

// At returns element (i,j).
func (m *CMatrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *CMatrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i,j).
func (m *CMatrix) Add(i, j int, v complex128) { m.Data[i*m.Cols+j] += v }

// Zero clears all entries in place.
func (m *CMatrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *CMatrix) Clone() *CMatrix {
	out := NewCMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = M·x.
func (m *CMatrix) MulVec(x []complex128) []complex128 {
	if len(x) != m.Cols {
		panic("la: MulVec dimension mismatch")
	}
	y := make([]complex128, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s complex128
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}
