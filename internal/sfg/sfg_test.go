package sfg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pipesyn/internal/expr"
)

// evalReal evaluates e through EvalC with every variable bound to a real
// value and returns the real part.
func evalReal(e expr.Expr, env map[string]float64) (float64, error) {
	cenv := make(map[string]complex128, len(env))
	for k, v := range env {
		cenv[k] = complex(v, 0)
	}
	v, err := e.EvalC(cenv)
	return real(v), err
}

func ev(t *testing.T, e expr.Expr, env map[string]float64) float64 {
	t.Helper()
	v, err := evalReal(e, env)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

// Classic negative-feedback loop: H = A / (1 + A·B).
func TestMasonFeedbackLoop(t *testing.T) {
	g := New()
	g.AddEdge("in", "e", expr.One)
	g.AddEdge("e", "out", expr.V("A"))
	g.AddEdge("out", "e", expr.Neg(expr.V("B")))
	h, err := g.TransferFunction("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"A": 100, "B": 0.1}
	got := ev(t, h, env)
	want := 100.0 / (1 + 100*0.1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("H = %g, want %g", got, want)
	}
}

// Two self-loops on consecutive path nodes are non-touching:
// Δ = (1-L1)(1-L2), path touches both, so H = P/Δ with the product form.
func TestMasonNonTouchingLoops(t *testing.T) {
	g := New()
	g.AddEdge("in", "a", expr.V("g1"))
	g.AddEdge("a", "b", expr.V("g2"))
	g.AddEdge("b", "out", expr.V("g3"))
	g.AddEdge("a", "a", expr.V("L1"))
	g.AddEdge("b", "b", expr.V("L2"))
	h, err := g.TransferFunction("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"g1": 2, "g2": 3, "g3": 5, "L1": 0.25, "L2": -0.5}
	got := ev(t, h, env)
	want := (2.0 * 3 * 5) / ((1 - 0.25) * (1 + 0.5))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("H = %g, want %g", got, want)
	}
}

// A loop not touching the forward path contributes to Δ but also to Δk.
func TestMasonDetachedLoop(t *testing.T) {
	g := New()
	g.AddEdge("in", "out", expr.V("P"))
	// Isolated two-node loop u↔v not on the path.
	g.AddEdge("u", "v", expr.V("a"))
	g.AddEdge("v", "u", expr.V("b"))
	h, err := g.TransferFunction("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	// H = P·(1-ab)/(1-ab) = P for any a,b ≠ resonance.
	env := map[string]float64{"P": 7, "a": 0.3, "b": 0.4}
	if got := ev(t, h, env); math.Abs(got-7) > 1e-12 {
		t.Fatalf("H = %g, want 7", got)
	}
}

// Two forward paths sum.
func TestMasonParallelPaths(t *testing.T) {
	g := New()
	g.AddEdge("in", "m", expr.V("p"))
	g.AddEdge("m", "out", expr.One)
	g.AddEdge("in", "out", expr.V("q"))
	h, err := g.TransferFunction("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	env := map[string]float64{"p": 3, "q": 4}
	if got := ev(t, h, env); math.Abs(got-7) > 1e-12 {
		t.Fatalf("H = %g, want 7", got)
	}
}

// Parallel edges between the same pair of nodes sum their gains.
func TestParallelEdgesSum(t *testing.T) {
	g := New()
	g.AddEdge("in", "out", expr.V("a"))
	g.AddEdge("in", "out", expr.V("b"))
	gain, err := g.TransferFunction("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	got := ev(t, gain, map[string]float64{"a": 2, "b": 5})
	if got != 7 {
		t.Fatalf("summed gain = %g, want 7", got)
	}
}

func TestLoopsEnumeration(t *testing.T) {
	g := New()
	// Triangle a→b→c→a plus self-loop at b: 2 simple cycles.
	g.AddEdge("a", "b", expr.One)
	g.AddEdge("b", "c", expr.One)
	g.AddEdge("c", "a", expr.One)
	g.AddEdge("b", "b", expr.V("x"))
	loops := g.Loops()
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2: %v", len(loops), g.DescribeLoops())
	}
}

func TestForwardPathsCount(t *testing.T) {
	g := New()
	// Diamond: in→a→out, in→b→out.
	g.AddEdge("in", "a", expr.One)
	g.AddEdge("in", "b", expr.One)
	g.AddEdge("a", "out", expr.One)
	g.AddEdge("b", "out", expr.One)
	paths, err := g.ForwardPaths("in", "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2", len(paths))
	}
}

func TestUnknownNodes(t *testing.T) {
	g := New()
	g.AddEdge("a", "b", expr.One)
	if _, err := g.TransferFunction("nope", "b"); err == nil {
		t.Fatal("expected error for unknown source")
	}
	if _, err := g.TransferFunction("a", "nope"); err == nil {
		t.Fatal("expected error for unknown sink")
	}
}

func TestZeroGainEdgeIgnored(t *testing.T) {
	g := New()
	g.AddNode("a")
	g.AddNode("b")
	g.AddEdge("a", "b", expr.Zero)
	if paths, err := g.ForwardPaths("a", "b"); err != nil || len(paths) != 0 {
		t.Fatalf("zero edge should not be stored: paths %v, err %v", paths, err)
	}
}

// Property: for a random series chain with per-node self-loops, Mason
// equals the product of g_i/(1-L_i) — each self-loop touches only its node.
func TestMasonChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%4 + 2 // 2..5 chain links
		r := rand.New(rand.NewSource(seed))
		g := New()
		want := 1.0
		prev := "in"
		for i := 0; i < n; i++ {
			node := string(rune('a' + i))
			gain := r.Float64()*2 + 0.1
			g.AddEdge(prev, node, expr.C(gain))
			loop := r.Float64()*0.8 - 0.4 // |L|<1 keeps it well-posed
			g.AddEdge(node, node, expr.C(loop))
			want *= gain / (1 - loop)
			prev = node
		}
		g.AddEdge(prev, "out", expr.One)
		h, err := g.TransferFunction("in", "out")
		if err != nil {
			return false
		}
		got, err := evalReal(h, nil)
		if err != nil {
			return false
		}
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// The graph determinant of a single loop is 1 − L, so x→y through a,
// closed by y→x through b, has H = a/(1 − a·b).
func TestDeterminant(t *testing.T) {
	g := New()
	g.AddEdge("x", "y", expr.V("a"))
	g.AddEdge("y", "x", expr.V("b"))
	h, err := g.TransferFunction("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	got := ev(t, h, map[string]float64{"a": 0.5, "b": 0.5})
	if math.Abs(got-0.5/0.75) > 1e-12 {
		t.Fatalf("H = %g, want 0.5/Δ with Δ = 0.75", got)
	}
}

func TestNodesOrder(t *testing.T) {
	g := New()
	n1, n2 := g.AddNode("n1"), g.AddNode("n2")
	if again := g.AddNode("n1"); n1 != 0 || n2 != 1 || again != n1 { // duplicate is a no-op
		t.Fatalf("AddNode indices n1=%d n2=%d n1 again=%d, want 0 1 0", n1, n2, again)
	}
}
