package expr

import (
	"math/rand"
	"testing"
)

// ladderTF builds an expression shaped like a Mason transfer function of
// an n-section ladder: nested sums of products with divisions.
func ladderTF(n int) Expr {
	s := V("s")
	h := One
	for i := 0; i < n; i++ {
		g := V(vname("g", i))
		c := V(vname("c", i))
		stage := Div(g, Add(g, Mul(s, c)))
		h = Mul(h, stage)
	}
	// A feedback-ish denominator coupling everything.
	return Div(h, Add(One, Mul(h, V("beta"))))
}

func vname(p string, i int) string {
	return p + string(rune('a'+i))
}

func ladderEnv(n int, seed int64) map[string]float64 {
	r := rand.New(rand.NewSource(seed))
	env := map[string]float64{"beta": 0.25}
	for i := 0; i < n; i++ {
		env[vname("g", i)] = 1e-3 * (1 + r.Float64())
		env[vname("c", i)] = 1e-12 * (1 + r.Float64())
	}
	return env
}

func BenchmarkEvalCTree(b *testing.B) {
	tf := ladderTF(8)
	env := ladderEnv(8, 1)
	cenv := map[string]complex128{}
	for k, v := range env {
		cenv[k] = complex(v, 0)
	}
	cenv["s"] = complex(0, 1e9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tf.EvalC(cenv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCCompiled(b *testing.B) {
	tf := ladderTF(8)
	env := ladderEnv(8, 1)
	prog, vars, err := tf.Compile()
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]complex128, len(vars))
	for i, name := range vars {
		if name == "s" {
			vals[i] = complex(0, 1e9)
		} else {
			vals[i] = complex(env[name], 0)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.EvalC(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCInto(b *testing.B) {
	tf := ladderTF(8)
	env := ladderEnv(8, 1)
	prog, vars, err := tf.Compile()
	if err != nil {
		b.Fatal(err)
	}
	vals := make([]complex128, len(vars))
	for i, name := range vars {
		if name == "s" {
			vals[i] = complex(0, 1e9)
		} else {
			vals[i] = complex(env[name], 0)
		}
	}
	var buf EvalBuf
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.EvalCInto(&buf, vals); err != nil {
			b.Fatal(err)
		}
	}
}
