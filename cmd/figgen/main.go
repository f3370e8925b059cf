// Command figgen regenerates the paper's figures from scratch:
//
//	figgen -fig 1          stage power per 13-bit candidate (Fig. 1)
//	figgen -fig 2          total power for 10–13 bit candidates (Fig. 2)
//	figgen -fig 3          optimum-configuration rules (Fig. 3)
//	figgen -fig retarget   cold vs warm-start synthesis (setup-time claim)
//	figgen -fig hybrid     evaluation-mode accuracy/speed comparison (§3)
//	figgen -fig all        everything
//
// The studies use the settings of package figure, the same ones the root
// figure benchmarks render figures/ with, so at the default seed the
// Fig. 1–3 and retarget numbers match the committed files. Use -csv to
// emit machine-readable data alongside the text rendering, and -quick for
// a low-budget smoke run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pipesyn/internal/core"
	"pipesyn/internal/enum"
	"pipesyn/internal/figure"
	"pipesyn/internal/hybrid"
	"pipesyn/internal/opamp"
	"pipesyn/internal/pdk"
	"pipesyn/internal/report"
	"pipesyn/internal/stagespec"
	"pipesyn/internal/synth"
	"pipesyn/internal/units"
)

func main() {
	fig := flag.String("fig", "all", "which figure: 1, 2, 3, retarget, hybrid, all")
	quick := flag.Bool("quick", false, "small synthesis budgets (smoke run)")
	csv := flag.Bool("csv", false, "emit CSV after each figure")
	seed := flag.Int64("seed", figure.Seed, "random seed")
	workers := flag.Int("workers", 0, "parallel synthesis workers (0 = all cores, 1 = serial)")
	cacheDir := flag.String("cache-dir", "", "content-addressed synthesis cache directory (empty = no cache)")
	flag.Parse()

	g := &generator{base: figure.Study(*seed), csv: *csv}
	bits := figure.Bits
	if *quick {
		g.base.Synth = synth.Options{Seed: *seed, MaxEvals: 40, PatternIter: 20}
		bits = []int{10, 13}
	}
	if *cacheDir != "" {
		cache, err := synth.NewCache(0, *cacheDir)
		if err != nil {
			fatal(err)
		}
		g.base.Synth.Cache = cache
	}
	g.base.Workers = *workers

	switch *fig {
	case "1":
		g.fig1(g.sweep([]int{13})[0])
	case "2", "3":
		g.fig2and3(g.sweep(bits), *fig == "3")
	case "retarget":
		g.retarget()
	case "hybrid":
		g.hybridCompare()
	case "all":
		studies := g.sweep(bits)
		g.fig1(studies[len(studies)-1])
		g.fig2and3(studies, true)
		g.retarget()
		g.hybridCompare()
	default:
		fatal(fmt.Errorf("unknown figure %q", *fig))
	}
}

type generator struct {
	base core.Options // figure study options; core.Sweep sets Bits
	csv  bool
}

// sweep runs the figure studies for bits under one shared worker budget.
func (g *generator) sweep(bits []int) []*core.Study {
	t0 := time.Now()
	studies, err := core.Sweep(context.Background(), bits, g.base)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("(studies for %v bits run in %s)\n\n", bits, time.Since(t0).Round(time.Millisecond))
	return studies
}

func (g *generator) fig1(st *core.Study) {
	if err := report.Fig1(os.Stdout, st); err != nil {
		fatal(err)
	}
	if err := report.MDACTable(os.Stdout, st); err != nil {
		fatal(err)
	}
	fmt.Println()
	if g.csv {
		t := figure1CSV(st)
		if err := t.CSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func figure1CSV(st *core.Study) *report.Table {
	t := &report.Table{Header: []string{"config", "stage", "bits", "mdac_w", "subadc_w", "total_w", "feasible"}}
	for _, c := range st.Candidates {
		for _, s := range c.Stages {
			t.Add(c.Config.String(), fmt.Sprint(s.Stage), fmt.Sprint(s.Bits),
				fmt.Sprint(s.MDACPower), fmt.Sprint(s.SubADCPower),
				fmt.Sprint(s.Total), fmt.Sprint(s.Feasible))
		}
	}
	return t
}

func (g *generator) fig2and3(studies []*core.Study, withRules bool) {
	if err := report.Fig2(os.Stdout, studies); err != nil {
		fatal(err)
	}
	if withRules {
		fmt.Println()
		if err := report.Fig3(os.Stdout, core.DeriveRules(studies)); err != nil {
			fatal(err)
		}
	}
	fmt.Println()
	if g.csv {
		t := &report.Table{Header: []string{"bits", "config", "total_w", "feasible"}}
		for _, st := range studies {
			for _, c := range st.Candidates {
				t.Add(fmt.Sprint(st.Bits), c.Config.String(),
					fmt.Sprint(c.TotalPower), fmt.Sprint(c.AllFeasible))
			}
		}
		if err := t.CSV(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

// retarget reproduces the paper's setup-time observation: the first
// synthesis is expensive, retargeting to a neighbouring spec is cheap.
func (g *generator) retarget() {
	t0 := time.Now()
	cold, warm, err := figure.Retarget(context.Background(), g.base.Synth)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Setup-time experiment — cold synthesis vs warm retargeting (§4 text)")
	t := &report.Table{Header: []string{"run", "evals", "evals-to-feasible", "power", "feasible"}}
	t.Add("cold (first block)", fmt.Sprint(cold.Evals), fmt.Sprint(cold.EvalsToFeasible),
		units.Format(cold.Metrics.Power, "W"), fmt.Sprint(cold.Feasible))
	t.Add("warm (retarget)", fmt.Sprint(warm.Evals), fmt.Sprint(warm.EvalsToFeasible),
		units.Format(warm.Metrics.Power, "W"), fmt.Sprint(warm.Feasible))
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
	if cold.Evals > 0 {
		fmt.Printf("retarget effort ratio: %.1f×\n", float64(cold.Evals)/float64(warm.Evals))
	}
	fmt.Printf("(generated in %s)\n\n", time.Since(t0).Round(time.Millisecond))
}

// hybridCompare reproduces the §3 argument: hybrid evaluation matches the
// simulation answer at a fraction of the cost; equations are faster still
// but less faithful.
func (g *generator) hybridCompare() {
	t0 := time.Now()
	proc := pdk.TSMC025()
	adc := stagespec.ADCSpec{Bits: 12, SampleRate: 40e6, VRef: 1}
	specs, err := stagespec.Translate(adc, enum.Config{3, 2, 2, 2, 2})
	if err != nil {
		fatal(err)
	}
	sp := specs[1]
	sz := opamp.InitialSizing(proc, opamp.BlockSpec{
		GBW: sp.GBWMin, SR: sp.SRMin, CLoad: sp.CLoad, CFeed: sp.CFeed,
		Gain: sp.GainMin, Swing: sp.SwingMin,
	})
	fmt.Println("Evaluation-mode comparison (§3) — one MDAC candidate, three evaluators")
	t := &report.Table{Header: []string{"mode", "time/eval", "TF leg", "loop gain", "crossover", "PM", "settle"}}
	reps := 5
	for _, mode := range []hybrid.Mode{hybrid.SimOnly, hybrid.Hybrid, hybrid.EquationOnly} {
		se := hybrid.NewStageEvaluator(sp, proc, mode)
		var m hybrid.Metrics
		start := time.Now()
		for i := 0; i < reps; i++ {
			m, err = se.Evaluate(context.Background(), sz)
			if err != nil {
				fatal(err)
			}
		}
		per := time.Since(start) / time.Duration(reps)
		t.Add(mode.String(), per.Round(time.Microsecond).String(),
			m.TFTime.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", m.LoopGain0),
			units.Format(m.CrossoverHz, "Hz"),
			fmt.Sprintf("%.1f°", m.PhaseMargin),
			units.Format(m.SettleTime, "s"))
	}
	if err := t.Write(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("(generated in %s)\n\n", time.Since(t0).Round(time.Millisecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figgen:", err)
	os.Exit(1)
}
