package expr

import (
	"math"
	"testing"
)

// evalOK evaluates e through EvalC with every variable bound to a real
// value and returns the real part.
func evalOK(t *testing.T, e Expr, env map[string]float64) float64 {
	t.Helper()
	cenv := make(map[string]complex128, len(env))
	for k, v := range env {
		cenv[k] = complex(v, 0)
	}
	v, err := e.EvalC(cenv)
	if err != nil {
		t.Fatalf("EvalC(%s): %v", e, err)
	}
	return real(v)
}

func TestConstFolding(t *testing.T) {
	if e := Add(C(1), C(2), C(3)); !eq(e, 6) {
		t.Fatalf("Add consts = %s", e)
	}
	if e := Mul(C(2), C(3)); !eq(e, 6) {
		t.Fatalf("Mul consts = %s", e)
	}
	if e := Mul(C(0), V("x")); !e.IsZero() {
		t.Fatalf("0*x = %s, want 0", e)
	}
	if e := Add(); !e.IsZero() {
		t.Fatalf("empty Add = %s", e)
	}
	if e := Mul(); !eq(e, 1) {
		t.Fatalf("empty Mul = %s", e)
	}
	if e := Pow(V("x"), 0); !eq(e, 1) {
		t.Fatalf("x^0 = %s", e)
	}
	if e := Pow(C(2), 3); !eq(e, 8) {
		t.Fatalf("2^3 = %s", e)
	}
}

func eq(e Expr, v float64) bool {
	c, ok := e.IsConst()
	return ok && c == v
}

func TestFlattening(t *testing.T) {
	e := Add(V("a"), Add(V("b"), Add(V("c"), C(1))), C(2))
	env := map[string]float64{"a": 1, "b": 2, "c": 3}
	if got := evalOK(t, e, env); got != 9 {
		t.Fatalf("flattened sum = %g, want 9", got)
	}
	m := Mul(V("a"), Mul(V("b"), C(2)), C(3))
	if got := evalOK(t, m, env); got != 12 {
		t.Fatalf("flattened product = %g, want 12", got)
	}
}

func TestEvalUnbound(t *testing.T) {
	if _, err := V("missing").EvalC(map[string]complex128{}); err == nil {
		t.Fatal("expected unbound-variable error")
	}
	if _, err := Add(V("x"), V("missing")).EvalC(map[string]complex128{"x": 1}); err == nil {
		t.Fatal("expected unbound-variable error in sum")
	}
}

func TestDivPow(t *testing.T) {
	e := Div(V("gm"), V("C"))
	env := map[string]float64{"gm": 1e-3, "C": 1e-12}
	if got := evalOK(t, e, env); math.Abs(got-1e9) > 1 {
		t.Fatalf("gm/C = %g, want 1e9", got)
	}
	// Div by const folds.
	d := Div(V("x"), C(4))
	if got := evalOK(t, d, map[string]float64{"x": 8}); got != 2 {
		t.Fatalf("x/4 = %g", got)
	}
	// Nested pow collapses: (x^2)^3 = x^6.
	p := Pow(Pow(V("x"), 2), 3)
	if got := evalOK(t, p, map[string]float64{"x": 2}); got != 64 {
		t.Fatalf("(x^2)^3 = %g, want 64", got)
	}
}

func TestDivByZeroConstPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero const should panic")
		}
	}()
	Div(V("x"), C(0))
}

func TestVars(t *testing.T) {
	e := Add(Mul(V("gm1"), V("ro")), Pow(V("s"), 2), C(3))
	got := e.Vars()
	want := []string{"gm1", "ro", "s"}
	if len(got) != len(want) {
		t.Fatalf("Vars = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", got, want)
		}
	}
}

func TestEvalC(t *testing.T) {
	// H = 1/(1 + s·RC) at s = j/RC has |H| = 1/√2.
	s := V("s")
	rc := 1e-9
	h := Div(C(1), Add(C(1), Mul(C(rc), s)))
	v, err := h.EvalC(map[string]complex128{"s": complex(0, 1/rc)})
	if err != nil {
		t.Fatal(err)
	}
	mag := math.Hypot(real(v), imag(v))
	if math.Abs(mag-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("|H| = %g, want %g", mag, 1/math.Sqrt2)
	}
}

func TestString(t *testing.T) {
	e := Add(Mul(C(2), V("x")), Pow(V("y"), -1))
	if e.String() == "" {
		t.Fatal("empty render")
	}
	if V("gm").String() != "gm" {
		t.Fatal("var render")
	}
}

func TestEmptyVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("V(\"\") should panic")
		}
	}()
	V("")
}
