package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomSparse builds a random pattern at roughly the given density and
// a matrix with values only at marked positions. When fullDiag is set
// the diagonal is marked and boosted so the system is (almost surely)
// nonsingular; otherwise raw random structure is used, which exercises
// the singular-detection parity between the dense and sparse paths.
func randomSparse(n int, density float64, seed int64, fullDiag bool) (*Pattern, *Matrix, []float64) {
	r := rand.New(rand.NewSource(seed))
	p := NewPattern(n)
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if r.Float64() < density {
				p.Mark(i, j)
				a.Set(i, j, r.Float64()*2-1)
			}
		}
	}
	if fullDiag {
		for i := 0; i < n; i++ {
			p.Mark(i, i)
			a.Add(i, i, 3+r.Float64())
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64()
	}
	return p, a, b
}

// mnaSystem builds a synthetic MNA-shaped system at the simulator's
// actual operating point: ~20 unknowns at ~15% density, a grounded
// resistive node block assembled by conductance stamps, plus voltage-
// source branch rows with structural zeros on the diagonal (the entries
// that force pivoting in real circuit matrices).
func mnaSystem(seed int64) (*Pattern, *Matrix, []float64) {
	const nodes, branches = 18, 2
	n := nodes + branches
	r := rand.New(rand.NewSource(seed))
	p := NewPattern(n)
	a := NewMatrix(n, n)
	stamp := func(i, j int, g float64) {
		p.Mark(i, i)
		a.Add(i, i, g)
		if j >= 0 {
			p.Mark(j, j)
			p.Mark(i, j)
			p.Mark(j, i)
			a.Add(j, j, g)
			a.Add(i, j, -g)
			a.Add(j, i, -g)
		}
	}
	// Connected chain plus random extra couplings to reach ~15% density.
	for i := 0; i < nodes-1; i++ {
		stamp(i, i+1, 1e-4*(1+r.Float64()))
	}
	for k := 0; k < 8; k++ {
		i, j := r.Intn(nodes), r.Intn(nodes)
		if i != j {
			stamp(i, j, 1e-5*(1+r.Float64()))
		}
	}
	// Grounded elements pin the node block.
	for _, i := range []int{0, 5, 11} {
		stamp(i, -1, 1e-3*(1+r.Float64()))
	}
	// Voltage-source branches: incidence only, zero diagonal.
	for b := 0; b < branches; b++ {
		br := nodes + b
		node := 3 * (b + 1)
		p.Mark(node, br)
		p.Mark(br, node)
		a.Add(node, br, 1)
		a.Add(br, node, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Float64() * 1e-3
	}
	return p, a, b
}

// TestSparseMatchesDenseBitExact is the determinism contract of the
// partial-pivot sparse mode: on any matrix covered by the analyzed
// pattern, the numeric refactor must reproduce the dense factorization
// bit for bit — same pivot sequence, same LU array, same solution, same
// determinant. Singular matrices must fail on both paths identically.
func TestSparseMatchesDenseBitExact(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		n := 4 + int(seed%17)
		density := 0.08 + 0.03*float64(seed%9)
		p, a, b := randomSparse(n, density, seed, seed%2 == 0)
		checkBitExact(t, p, a, b, seed)
	}
	for seed := int64(100); seed < 110; seed++ {
		p, a, b := mnaSystem(seed)
		checkBitExact(t, p, a, b, seed)
	}
	// n > 64 exercises the generic multi-word bitset path (all smaller
	// systems take the single-word specialization).
	for seed := int64(200); seed < 206; seed++ {
		n := 66 + int(seed%3)*13
		p, a, b := randomSparse(n, 0.06, seed, seed%2 == 0)
		checkBitExact(t, p, a, b, seed)
	}
}

func checkBitExact(t *testing.T, p *Pattern, a *Matrix, b []float64, seed int64) {
	t.Helper()
	sym := Analyze(p)
	if !sym.Covers(a) {
		t.Fatalf("seed %d: analysis does not cover matrix", seed)
	}
	var dense LU
	sparse := NewSparseLU(sym)
	denseErr := dense.FactorInto(a)
	sparseErr := sparse.NumericFactor(a)
	if (denseErr == nil) != (sparseErr == nil) {
		t.Fatalf("seed %d: dense err %v, sparse err %v", seed, denseErr, sparseErr)
	}
	if denseErr != nil {
		if !errors.Is(sparseErr, ErrSingular) {
			t.Fatalf("seed %d: sparse error %v, want ErrSingular", seed, sparseErr)
		}
		return
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		if dense.piv[i] != sparse.piv[i] {
			t.Fatalf("seed %d: pivot order diverges at %d: dense %v, sparse %v", seed, i, dense.piv, sparse.piv)
		}
	}
	// Factor arrays agree by value; dead multiplier slots (rows whose
	// column entry is a structural zero) may differ in zero sign — the
	// dense loop writes ±0 there, the sparse loop skips them, and no
	// later factor or solve step reads them.
	for i, v := range dense.lu.Data {
		if v != sparse.lu.Data[i] {
			t.Fatalf("seed %d: LU[%d,%d] dense %x sparse %x", seed, i/n, i%n,
				math.Float64bits(v), math.Float64bits(sparse.lu.Data[i]))
		}
	}
	xd := make([]float64, n)
	xs := make([]float64, n)
	dense.SolveInto(xd, b)
	sparse.SolveInto(xs, b)
	for i := range xd {
		if math.Float64bits(xd[i]) != math.Float64bits(xs[i]) {
			t.Fatalf("seed %d: x[%d] dense %x sparse %x", seed, i,
				math.Float64bits(xd[i]), math.Float64bits(xs[i]))
		}
	}
	if math.Float64bits(dense.Det()) != math.Float64bits(sparse.Det()) {
		t.Fatalf("seed %d: det dense %g sparse %g", seed, dense.Det(), sparse.Det())
	}
}

// TestCSparseMatchesDenseBitExact extends the contract to the complex
// path the AC and noise sweeps run on.
func TestCSparseMatchesDenseBitExact(t *testing.T) {
	for seed := int64(0); seed < 34; seed++ {
		// The last seeds push n past 64 to cover the generic multi-word
		// path; everything smaller takes the single-word specialization.
		n := 4 + int(seed%13)
		if seed >= 30 {
			n = 66 + int(seed%3)*7
		}
		p, ar, br := randomSparse(n, 0.1+0.03*float64(seed%7), seed, seed%3 != 2)
		r := rand.New(rand.NewSource(seed + 999))
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if v := ar.At(i, j); v != 0 || p.Has(i, j) {
					a.Set(i, j, complex(v, 0.3*(r.Float64()*2-1)))
				}
			}
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(br[i], r.Float64())
		}
		sym := Analyze(p)
		var dense CLU
		sparse := NewCSparseLU(sym)
		denseErr := dense.FactorInto(a)
		sparseErr := sparse.NumericFactor(a)
		if (denseErr == nil) != (sparseErr == nil) {
			t.Fatalf("seed %d: dense err %v, sparse err %v", seed, denseErr, sparseErr)
		}
		if denseErr != nil {
			continue
		}
		xd := make([]complex128, n)
		xs := make([]complex128, n)
		dense.SolveInto(xd, b)
		sparse.SolveInto(xs, b)
		for i := range xd {
			if math.Float64bits(real(xd[i])) != math.Float64bits(real(xs[i])) ||
				math.Float64bits(imag(xd[i])) != math.Float64bits(imag(xs[i])) {
				t.Fatalf("seed %d: x[%d] dense %v sparse %v", seed, i, xd[i], xs[i])
			}
		}
	}
}

// TestSparseSingularParity pins the failure modes: a structurally
// singular pattern and an exactly zero matrix must return ErrSingular
// from the sparse path just as the dense path does.
func TestSparseSingularParity(t *testing.T) {
	// Column 2 empty: structurally singular.
	p := NewPattern(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j != 2 {
				p.Mark(i, j)
			}
		}
	}
	a := NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if j != 2 {
				a.Set(i, j, float64(1+i+j))
			}
		}
	}
	f := NewSparseLU(Analyze(p))
	if err := f.NumericFactor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("structurally singular: got %v, want ErrSingular", err)
	}
	// Zero matrix on a nonempty pattern.
	z := NewMatrix(4, 4)
	if err := f.NumericFactor(z); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix: got %v, want ErrSingular", err)
	}
	// The workspace must stay usable after a failure.
	pd, ad, bd := randomSparse(4, 1, 7, true)
	fd := NewSparseLU(Analyze(pd))
	if err := fd.NumericFactor(ad); err != nil {
		t.Fatal(err)
	}
	fd.SolveInto(make([]float64, len(bd)), bd)
}

// TestOrderedMatchesDense checks the static Markowitz order against the
// dense path to 1e-12: a different elimination order cannot be bit-
// identical, but the solutions must agree to round-off.
func TestOrderedMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		var p *Pattern
		var a *Matrix
		var b []float64
		if seed%2 == 0 {
			p, a, b = mnaSystem(seed)
		} else {
			// Static-order factorization has no numeric pivoting, so the
			// 1e-12 agreement claim is made on diagonally dominant
			// systems (which MNA node blocks are).
			p, a, b = randomSparse(10+int(seed), 0.2, seed, true)
			n := a.Rows
			for i := 0; i < n; i++ {
				rowSum := 0.0
				for j := 0; j < n; j++ {
					if j != i {
						rowSum += math.Abs(a.At(i, j))
					}
				}
				a.Set(i, i, rowSum+1)
			}
		}
		sym, err := AnalyzeOrdered(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		f := NewSparseLU(sym)
		if err := f.NumericFactor(a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		xd, err := SolveSystem(a, b)
		if err != nil {
			t.Fatalf("seed %d: dense: %v", seed, err)
		}
		xs := make([]float64, len(b))
		f.SolveInto(xs, b)
		// Backward error at 1e-12 of the problem scale: the proper
		// "agrees with dense" criterion for a different elimination
		// order, which matches dense only to round-off.
		normA := 0.0
		for i := 0; i < a.Rows; i++ {
			rs := 0.0
			for j := 0; j < a.Cols; j++ {
				rs += math.Abs(a.At(i, j))
			}
			if rs > normA {
				normA = rs
			}
		}
		scale := normA*NormInf(xs) + NormInf(b)
		res := a.MulVec(xs)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-12*scale {
				t.Fatalf("seed %d: residual[%d] = %g exceeds 1e-12·%g", seed, i, res[i]-b[i], scale)
			}
		}
		xscale := math.Max(1, NormInf(xd))
		for i := range xd {
			if math.Abs(xd[i]-xs[i]) > 1e-10*xscale {
				t.Fatalf("seed %d: x[%d] dense %g ordered %g", seed, i, xd[i], xs[i])
			}
		}
		dd, ds := 1.0, f.Det()
		if fd, err := Factor(a); err == nil {
			dd = fd.Det()
		}
		if math.Abs(dd-ds) > 1e-9*math.Max(1, math.Abs(dd)) {
			t.Fatalf("seed %d: det dense %g ordered %g", seed, dd, ds)
		}
	}
}

// TestOrderedZeroPivotFallsBack: when the numeric values defeat the
// static pivot choice, the ordered factor must fail with ErrZeroPivot —
// distinguishable from true singularity — and the dense partial-pivot
// path must still solve the system (the documented fallback).
func TestOrderedZeroPivotFallsBack(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [3][3]float64{{0, 1, 2}, {1, 1, 1}, {2, 1, 1}}
	p := NewPattern(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			p.Mark(i, j)
			a.Set(i, j, vals[i][j])
		}
	}
	sym, err := AnalyzeOrdered(p)
	if err != nil {
		t.Fatal(err)
	}
	f := NewSparseLU(sym)
	err = f.NumericFactor(a)
	if !errors.Is(err, ErrZeroPivot) {
		t.Fatalf("got %v, want ErrZeroPivot", err)
	}
	if errors.Is(err, ErrSingular) {
		t.Fatalf("zero-pivot error must not read as singular: %v", err)
	}
	x, err := SolveSystem(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("dense fallback failed: %v", err)
	}
	r := a.MulVec(x)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(r[i]-want) > 1e-12 {
			t.Fatalf("fallback residual[%d] = %g", i, r[i]-want)
		}
	}
}

// TestAnalyzeOrderedStructurallySingular: an empty column has no valid
// pivot in any order.
func TestAnalyzeOrderedStructurallySingular(t *testing.T) {
	p := NewPattern(3)
	p.Mark(0, 0)
	p.Mark(1, 0)
	p.Mark(1, 2)
	p.Mark(2, 2)
	if _, err := AnalyzeOrdered(p); !errors.Is(err, ErrSingular) {
		t.Fatalf("got %v, want ErrSingular", err)
	}
}

// TestSparseNumericFactorNoAlloc is the hot-loop guard: once the
// workspace exists, refactor+solve must not touch the heap, in either
// mode and for the complex variant.
func TestSparseNumericFactorNoAlloc(t *testing.T) {
	p, a, b := mnaSystem(1)
	x := make([]float64, a.Rows)

	f := NewSparseLU(Analyze(p))
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.NumericFactor(a); err != nil {
			t.Fatal(err)
		}
		f.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("partial-pivot refactor allocates %g objects, want 0", allocs)
	}

	osym, err := AnalyzeOrdered(p)
	if err != nil {
		t.Fatal(err)
	}
	fo := NewSparseLU(osym)
	allocs = testing.AllocsPerRun(200, func() {
		if err := fo.NumericFactor(a); err != nil {
			t.Fatal(err)
		}
		fo.SolveInto(x, b)
	})
	if allocs != 0 {
		t.Fatalf("static-order refactor allocates %g objects, want 0", allocs)
	}

	ca := NewCMatrix(a.Rows, a.Cols)
	for i, v := range a.Data {
		ca.Data[i] = complex(v, 0.1*v)
	}
	cb := make([]complex128, len(b))
	for i := range b {
		cb[i] = complex(b[i], 0)
	}
	cx := make([]complex128, len(b))
	cf := NewCSparseLU(Analyze(p))
	allocs = testing.AllocsPerRun(200, func() {
		if err := cf.NumericFactor(ca); err != nil {
			t.Fatal(err)
		}
		cf.SolveInto(cx, cb)
	})
	if allocs != 0 {
		t.Fatalf("complex refactor allocates %g objects, want 0", allocs)
	}

	// n > 64: the multi-word partial-pivot path, real and complex.
	wp, wa, wb := randomSparse(80, 0.05, 3, true)
	wx := make([]float64, wa.Rows)
	wf := NewSparseLU(Analyze(wp))
	allocs = testing.AllocsPerRun(200, func() {
		if err := wf.NumericFactor(wa); err != nil {
			t.Fatal(err)
		}
		wf.SolveInto(wx, wb)
	})
	if allocs != 0 {
		t.Fatalf("multi-word refactor allocates %g objects, want 0", allocs)
	}
	wca := NewCMatrix(wa.Rows, wa.Cols)
	for i, v := range wa.Data {
		wca.Data[i] = complex(v, 0.1*v)
	}
	wcb := make([]complex128, len(wb))
	for i := range wb {
		wcb[i] = complex(wb[i], 0)
	}
	wcx := make([]complex128, len(wb))
	wcf := NewCSparseLU(Analyze(wp))
	allocs = testing.AllocsPerRun(200, func() {
		if err := wcf.NumericFactor(wca); err != nil {
			t.Fatal(err)
		}
		wcf.SolveInto(wcx, wcb)
	})
	if allocs != 0 {
		t.Fatalf("multi-word complex refactor allocates %g objects, want 0", allocs)
	}
}

// TestPatternBasics covers the marking API, including the ground (-1)
// convention MNA assemblers rely on.
func TestPatternBasics(t *testing.T) {
	p := NewPattern(70) // spans multiple bitset words
	p.Mark(0, 0)
	p.Mark(69, 69)
	p.Mark(3, 65)
	p.Mark(-1, 5)
	p.Mark(5, -1)
	p.Mark(0, 0) // idempotent
	if p.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", p.NNZ())
	}
	if !p.Has(3, 65) || p.Has(65, 3) {
		t.Fatal("Has disagrees with Mark")
	}
	a := NewMatrix(3, 3)
	a.Set(0, 1, 2)
	a.Set(2, 2, -1)
	q := PatternOf(a)
	if q.NNZ() != 2 || !q.Has(0, 1) || !q.Has(2, 2) {
		t.Fatalf("PatternOf wrong: nnz=%d", q.NNZ())
	}
	sym := Analyze(q)
	if len(sym.nnzIdx) != 2 || sym.n != 3 {
		t.Fatalf("analysis wrong: n=%d nnz=%d", sym.n, len(sym.nnzIdx))
	}
}

// TestSymbolicMulVecInto checks the pattern mat-vec used by the
// modified-Newton residual path against the dense product.
func TestSymbolicMulVecInto(t *testing.T) {
	p, a, _ := mnaSystem(3)
	sym := Analyze(p)
	r := rand.New(rand.NewSource(11))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = r.Float64()*2 - 1
	}
	want := a.MulVec(x)
	got := make([]float64, a.Rows)
	sym.MulVecInto(got, a, x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-15*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("y[%d] dense %g pattern %g", i, want[i], got[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() { sym.MulVecInto(got, a, x) })
	if allocs != 0 {
		t.Fatalf("MulVecInto allocates %g objects, want 0", allocs)
	}
}

// The speedup claim is made at the simulator's actual shape — ~20×20 at
// ~15% density with branch rows — not on dense random matrices. Dense
// vs sparse vs static-order, real and complex.

func BenchmarkMNAFactorSolve20Dense(b *testing.B) {
	_, a, rhs := mnaSystem(1)
	var f LU
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.FactorInto(a); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, rhs)
	}
}

func BenchmarkMNAFactorSolve20Sparse(b *testing.B) {
	p, a, rhs := mnaSystem(1)
	f := NewSparseLU(Analyze(p))
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.NumericFactor(a); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, rhs)
	}
}

func BenchmarkMNAFactorSolve20Ordered(b *testing.B) {
	p, a, rhs := mnaSystem(1)
	sym, err := AnalyzeOrdered(p)
	if err != nil {
		b.Fatal(err)
	}
	f := NewSparseLU(sym)
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.NumericFactor(a); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, rhs)
	}
}

func BenchmarkCMNAFactorSolve20Dense(b *testing.B) {
	_, ar, rhs := mnaSystem(1)
	n := ar.Rows
	a := NewCMatrix(n, n)
	for i, v := range ar.Data {
		a.Data[i] = complex(v, 0.1*v)
	}
	cb := make([]complex128, n)
	for i := range cb {
		cb[i] = complex(rhs[i], 0)
	}
	var f CLU
	x := make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.FactorInto(a); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, cb)
	}
}

func BenchmarkCMNAFactorSolve20Sparse(b *testing.B) {
	p, ar, rhs := mnaSystem(1)
	n := ar.Rows
	a := NewCMatrix(n, n)
	for i, v := range ar.Data {
		a.Data[i] = complex(v, 0.1*v)
	}
	cb := make([]complex128, n)
	for i := range cb {
		cb[i] = complex(rhs[i], 0)
	}
	f := NewCSparseLU(Analyze(p))
	x := make([]complex128, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.NumericFactor(a); err != nil {
			b.Fatal(err)
		}
		f.SolveInto(x, cb)
	}
}
