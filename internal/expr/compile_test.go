package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompileMatchesEvalC(t *testing.T) {
	tf := ladderTF(6)
	env := ladderEnv(6, 3)
	prog, vars, err := tf.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.code) == 0 {
		t.Fatal("empty program")
	}
	cenv := map[string]complex128{}
	vals := make([]complex128, len(vars))
	for i, name := range vars {
		var v complex128
		if name == "s" {
			v = complex(0, 2e9)
		} else {
			v = complex(env[name], 0)
		}
		vals[i] = v
		cenv[name] = v
	}
	want, err := tf.EvalC(cenv)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.EvalC(vals)
	if err != nil {
		t.Fatal(err)
	}
	if d := got - want; math.Hypot(real(d), imag(d)) > 1e-12*(1+math.Hypot(real(want), imag(want))) {
		t.Fatalf("compiled %v vs tree %v", got, want)
	}
}

// Property: compiled evaluation equals tree evaluation bit for bit for
// random expressions built from the constructor grammar — sums,
// differences, products, quotients and positive and negative powers —
// with real-valued parameters and a pure-imaginary s, as the hybrid
// evaluator binds them.
func TestCompileEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	names := []string{"a", "b", "c", "d", "s"}
	var build func(r *rand.Rand, depth int) Expr
	build = func(r *rand.Rand, depth int) Expr {
		if depth == 0 || r.Float64() < 0.3 {
			if r.Float64() < 0.5 {
				return C(r.Float64()*4 - 2)
			}
			return V(names[r.Intn(len(names))])
		}
		switch r.Intn(6) {
		case 0:
			return Add(build(r, depth-1), build(r, depth-1))
		case 1:
			return Mul(build(r, depth-1), build(r, depth-1))
		case 2:
			return Pow(build(r, depth-1), r.Intn(3)+1)
		case 3:
			return Pow(build(r, depth-1), -(r.Intn(3) + 1))
		case 4:
			num, den := build(r, depth-1), build(r, depth-1)
			if v, ok := den.IsConst(); ok && v == 0 {
				return num // Div panics on a constant zero
			}
			return Div(num, den)
		default:
			return Add(build(r, depth-1), Neg(build(r, depth-1)))
		}
	}
	sameBits := func(x, y complex128) bool {
		return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
			math.Float64bits(imag(x)) == math.Float64bits(imag(y))
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := build(r, 5)
		prog, vars, err := e.Compile()
		if err != nil {
			return false
		}
		cenv := map[string]complex128{}
		vals := make([]complex128, len(vars))
		for i, n := range vars {
			v := complex(r.Float64()*2+0.5, r.Float64())
			if n == "s" {
				v = complex(0, r.Float64()*4+0.1)
			}
			vals[i] = v
			cenv[n] = v
		}
		want, err1 := e.EvalC(cenv)
		got, err2 := prog.EvalC(vals)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil
		}
		if !sameBits(got, want) {
			t.Logf("%v: compiled %v, tree %v", e, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestProgramVarIndex(t *testing.T) {
	e := Add(V("x"), Mul(V("y"), V("s")))
	prog, vars, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 3 {
		t.Fatalf("vars = %v", vars)
	}
	if prog.VarIndex("s") < 0 || prog.VarIndex("zz") != -1 {
		t.Fatal("VarIndex misbehaves")
	}
	if got := prog.vars; len(got) != 3 {
		t.Fatalf("vars = %v", got)
	}
	// Wrong value count errors.
	if _, err := prog.EvalC(make([]complex128, 1)); err == nil {
		t.Fatal("expected length error")
	}
}

func TestCompilePowNegative(t *testing.T) {
	e := Pow(V("x"), -2)
	prog, _, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.EvalC([]complex128{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(real(got)-0.25) > 1e-15 || imag(got) != 0 {
		t.Fatalf("x^-2 at 2 = %v", got)
	}
}

// TestCompileCSE checks that a shared subexpression is computed once and
// re-loaded from a register, and that the optimized program agrees with
// tree evaluation bit-for-bit.
func TestCompileCSE(t *testing.T) {
	// d appears twice: the Mason numerator/denominator shape.
	d := Add(V("x"), Mul(V("y"), V("s")))
	e := Div(d, Add(One, Mul(d, V("k"))))
	prog, vars, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if prog.nreg == 0 {
		t.Fatal("expected the shared subexpression to be assigned a register")
	}
	env := map[string]complex128{
		"x": complex(0.7, 0), "y": complex(2e-12, 0),
		"s": complex(0, 6e9), "k": complex(0.25, 0),
	}
	vals := make([]complex128, len(vars))
	for i, name := range vars {
		vals[i] = env[name]
	}
	want, err := e.EvalC(env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prog.EvalC(vals)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("compiled %v != tree %v", got, want)
	}
}

// TestCompileConstantFolding checks that constant subtrees collapse to a
// single push with the runtime's accumulation semantics preserved.
func TestCompileConstantFolding(t *testing.T) {
	// Pow of a sum of constants survives the constructors un-folded
	// (Add folds, but Pow of the folded constant folds via math.Pow in
	// the constructor) — build one the constructors cannot fold: the
	// product carries a variable that multiplies to a constant-free
	// position, while the 3-term constant chain folds in compile.
	e := Expr{kind: kMul, args: []Expr{C(2), C(3), V("x"), C(0.5)}}
	prog, vars, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 1 || vars[0] != "x" {
		t.Fatalf("vars = %v", vars)
	}
	got, err := prog.EvalC([]complex128{complex(7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.EvalC(map[string]complex128{"x": complex(7, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("compiled %v != tree %v", got, want)
	}
}

// TestEvalCIntoDoesNotAllocate pins the hot-loop contract: with a warm
// buffer, evaluation performs zero heap allocations.
func TestEvalCIntoDoesNotAllocate(t *testing.T) {
	d := Add(V("x"), Mul(V("y"), V("s")))
	e := Div(d, Add(One, Mul(d, V("k"))))
	prog, vars, err := e.Compile()
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]complex128, len(vars))
	for i := range vals {
		vals[i] = complex(1+float64(i), 0.5)
	}
	var buf EvalBuf
	if _, err := prog.EvalCInto(&buf, vals); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := prog.EvalCInto(&buf, vals); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalCInto allocates %g objects per run, want 0", allocs)
	}
}
