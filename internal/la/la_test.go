package la

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolve2x2(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	x, err := SolveSystem(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("got %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivot(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveSystem(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("got %v, want [3 2]", x)
	}
}

func TestSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factor(a); err == nil {
		t.Fatal("expected ErrSingular for rank-1 matrix")
	}
	z := NewMatrix(3, 3)
	if _, err := Factor(z); err == nil {
		t.Fatal("expected ErrSingular for zero matrix")
	}
}

func TestNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestDet(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d-24) > 1e-12 {
		t.Fatalf("Det = %g, want 24", d)
	}
}

func TestDetPermutationSign(t *testing.T) {
	// Row-swapped identity has determinant -1.
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Det(); math.Abs(d+1) > 1e-12 {
		t.Fatalf("Det = %g, want -1", d)
	}
}

// Property: for random diagonally-dominant matrices, A·Solve(A,b) ≈ b.
func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%8 + 2
		r := rand.New(rand.NewSource(seed))
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := r.Float64()*2 - 1
					a.Set(i, j, v)
					rowSum += math.Abs(v)
				}
			}
			a.Set(i, i, rowSum+1+r.Float64()) // strict dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Float64()*10 - 5
		}
		x, err := SolveSystem(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if math.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSolve(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, complex(1, 1))
	a.Set(0, 1, 2)
	a.Set(1, 0, 0)
	a.Set(1, 1, complex(0, 3))
	want := []complex128{complex(1, -1), complex(2, 2)}
	b := a.MulVec(want)
	x, err := CSolveSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		r := rand.New(rand.NewSource(seed))
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			rowSum := 0.0
			for j := 0; j < n; j++ {
				if i != j {
					v := complex(r.Float64()*2-1, r.Float64()*2-1)
					a.Set(i, j, v)
					rowSum += cmplx.Abs(v)
				}
			}
			a.Set(i, i, complex(rowSum+1, r.Float64()))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(r.Float64(), r.Float64())
		}
		x, err := CSolveSystem(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if cmplx.Abs(res[i]-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSingular(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, complex(2, 0))
	a.Set(1, 1, complex(2, 0))
	if _, err := CFactor(a); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if n := NormInf(v); n != 4 {
		t.Fatalf("NormInf = %g, want 4", n)
	}
}

func TestStampAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Add(0, 0, 1.5)
	m.Add(0, 0, 2.5)
	if m.At(0, 0) != 4 {
		t.Fatalf("Add accumulate = %g, want 4", m.At(0, 0))
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Zero did not clear")
	}
}
