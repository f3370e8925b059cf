package sim

import (
	"testing"

	"pipesyn/internal/enum"
	"pipesyn/internal/mdac"
	"pipesyn/internal/netlist"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/stagespec"
)

const benchAmpDeck = `* two-stage amp bench
V1 vdd 0 DC 3.3
VIN inp 0 DC 1.4 AC 1
M1 x1 inn tail 0 nch W=20u L=0.5u
M2 x2 inp tail 0 nch W=20u L=0.5u
M3 x1 x1 vdd vdd pch W=40u L=0.5u
M4 x2 x1 vdd vdd pch W=40u L=0.5u
M5 out x2 vdd vdd pch W=60u L=0.35u
M6 out bn 0 0 nch W=20u L=1u
M7 bn bn 0 0 nch W=5u L=1u
M8 tail bn 0 0 nch W=20u L=1u
IB vdd bn DC 20u
RZ x2 z 500
CC z out 0.5p
RFB out inn 1
CL out 0 1p
.model nch nmos (vto=0.45 kp=180u)
.model pch pmos (vto=-0.5 kp=60u)
`

func benchCircuit(b *testing.B) *netlist.Circuit {
	b.Helper()
	c, err := netlist.Parse(benchAmpDeck)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkOPTwoStageAmp(b *testing.B) {
	c := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OP(c, DCOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkACTwoStageAmp(b *testing.B) {
	c := benchCircuit(b)
	op, err := OP(c, DCOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AC(c, op, ACOpts{FStart: 1e3, FStop: 10e9, PointsPerDecade: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTranTwoStageAmp(b *testing.B) {
	c := benchCircuit(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Tran(c, TranOpts{TStop: 20e-9, TStep: 50e-12}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNoiseTwoStageAmp(b *testing.B) {
	c := benchCircuit(b)
	op, err := OP(c, DCOpts{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Noise(c, op, NoiseOpts{Output: "out", FStart: 1e3, FStop: 10e9, PointsPerDecade: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranSettleFullNewton is the root package's TranSettle
// benchmark — the worst-case residue step of a 12-bit pipeline's second
// MDAC over the hybrid evaluator's settling window — on the full-Newton
// oracle (factor every iteration). Compare against BenchmarkTranSettle
// for what factorization reuse saves on the evaluator's transient leg.
func BenchmarkTranSettleFullNewton(b *testing.B) {
	hold, opts := settleRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, err := compile(hold)
		if err != nil {
			b.Fatal(err)
		}
		cc.fullNewton = true
		if _, err := tranCompiled(cc, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// settleRun is the evaluator's settling transient for the second MDAC
// of a 12-bit 3-2-2-2-2 pipeline at its designer-equation sizing: the
// hold circuit, and the span, grid and probe the evaluator runs it on.
func settleRun(tb testing.TB) (*netlist.Circuit, TranOpts) {
	tb.Helper()
	proc := pdk.TSMC025()
	specs, err := stagespec.Translate(stagespec.ADCSpec{Bits: 12, SampleRate: 40e6, VRef: 1}, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		tb.Fatal(err)
	}
	sp := specs[1]
	sz := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	st := mdac.Stage{Spec: sp, Sizing: sz, Process: proc}
	hold, err := st.HoldCircuit()
	if err != nil {
		tb.Fatal(err)
	}
	tStop, tStep := st.SettleSpan()
	return hold, TranOpts{TStop: tStop, TStep: tStep, Probes: []string{mdac.NodeOut}}
}
