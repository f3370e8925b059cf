package hybrid

import (
	"context"
	"testing"

	"pipesyn/internal/opamp"
)

// benchSizings derives n structurally identical sizing variants of the
// relaxed stage, spread far enough apart that each candidate settles on
// its own operating point.
func benchSizings(tb testing.TB, n int) []opamp.Amp {
	tb.Helper()
	st := relaxedStage(tb)
	base := st.Sizing.Vector()
	out := make([]opamp.Amp, n)
	for i := range out {
		v := append([]float64(nil), base...)
		for j := range v {
			v[j] *= 1 + 0.04*float64(i)*float64(j%3)
		}
		sz, err := opamp.FromVector(v)
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = sz.Clamp(st.Process)
	}
	return out
}

// BenchmarkEvaluate8 evaluates 8 candidates through one fresh
// evaluator, the way a synthesis restart does: the first evaluation
// compiles the hold-circuit kernel and binds the process-wide loop
// transfer function, the other seven rebind the warm kernel and solve
// on the reuse-Newton path.
func BenchmarkEvaluate8(b *testing.B) {
	st := relaxedStage(b)
	sizings := benchSizings(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
		for _, sz := range sizings {
			if _, err := se.Evaluate(context.Background(), sz); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkLoopTF is the hybrid transfer-function leg alone: one warm
// evaluator's slot fill plus its early-stopped two-pass sweep, at a fixed
// operating point.
func BenchmarkLoopTF(b *testing.B) {
	st := relaxedStage(b)
	se := NewStageEvaluator(st.Spec, st.Process, Hybrid)
	if _, err := se.Evaluate(context.Background(), st.Sizing); err != nil {
		b.Fatal(err)
	}
	hold, op, cin, err := holdOP(st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := se.tf.fill(se.slot, hold, op, cin); err != nil {
			b.Fatal(err)
		}
		if _, err := se.loopMetrics(); err != nil {
			b.Fatal(err)
		}
	}
}
