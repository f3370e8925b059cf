package la

// Accessors only the tests use: the solvers never set a single element,
// query a pattern, check coverage or take a determinant, but the tests
// build matrices and check factorizations through them.

// Set assigns element (i,j).
func (m *Dense[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Has reports whether (i,j) is in the pattern.
func (p *Pattern) Has(i, j int) bool {
	return p.rows[i*p.words+(j>>6)]&(1<<uint(j&63)) != 0
}

// Covers reports whether every nonzero of a lies inside the analyzed
// pattern — the precondition NumericFactor relies on.
func (s *Symbolic) Covers(a *Matrix) bool {
	if a.Rows != s.n || a.Cols != s.n {
		return false
	}
	have := make(map[int32]bool, len(s.nnzIdx))
	for _, idx := range s.nnzIdx {
		have[idx] = true
	}
	for i, v := range a.Data {
		if v != 0 && !have[int32(i)] {
			return false
		}
	}
	return true
}

// Det returns det(A) from the factorization. Its sign is the parity of
// the row permutation: piv under partial pivoting, rowOrder ∘ colOrder⁻¹
// under a static order.
func (f *pivotLU[T]) Det() T {
	sign := permParity(f.piv)
	if f.sym.ordered {
		sign = permParity(f.sym.rowOrder) * permParity(f.sym.colOrder)
	}
	var d T = 1
	if sign < 0 {
		d = -1
	}
	n := f.sym.n
	for i := 0; i < n; i++ {
		d *= f.lu.Data[i*n+i]
	}
	return d
}

// permParity returns +1 for even permutations, -1 for odd.
func permParity[I int | int32](p []I) int {
	seen := make([]bool, len(p))
	sign := 1
	for i := range p {
		if seen[i] {
			continue
		}
		length := 0
		for j := i; !seen[j]; j = int(p[j]) {
			seen[j] = true
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}
