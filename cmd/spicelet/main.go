// Command spicelet is a miniature circuit simulator over this project's
// MNA engine: it reads a SPICE-flavoured deck and runs the requested
// analysis.
//
// Usage:
//
//	spicelet -op deck.sp
//	spicelet -ac "1k:10G" -out vout deck.sp
//	spicelet -tran "1n:5u" -out vout deck.sp
//	spicelet -noise "1k:10G" -out vout deck.sp (output thermal noise)
//	spicelet -tf -in vin -out vout deck.sp     (symbolic DPI/SFG transfer function)
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"pipesyn/internal/dpi"
	"pipesyn/internal/netlist"
	"pipesyn/internal/sim"
	"pipesyn/internal/units"
)

func main() {
	opFlag := flag.Bool("op", false, "DC operating point")
	acFlag := flag.String("ac", "", "AC sweep range, e.g. 1k:10G")
	noiseFlag := flag.String("noise", "", "noise integration band, e.g. 1k:10G")
	tranFlag := flag.String("tran", "", "transient step:stop, e.g. 1n:5u")
	tfFlag := flag.Bool("tf", false, "symbolic transfer function via DPI/SFG + Mason")
	inNode := flag.String("in", "", "input node for -tf (defaults to the AC source)")
	outNode := flag.String("out", "", "output node for -ac/-tran/-tf")
	points := flag.Int("ppd", 20, "AC points per decade")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("expected one deck file, got %d args", flag.NArg()))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	ckt, err := netlist.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	switch {
	case *tfFlag:
		runTF(ckt, *inNode, *outNode)
	case *noiseFlag != "":
		runNoise(ckt, *noiseFlag, *outNode, *points)
	case *acFlag != "":
		runAC(ckt, *acFlag, *outNode, *points)
	case *tranFlag != "":
		runTran(ckt, *tranFlag, *outNode)
	default:
		*opFlag = true
		fallthrough
	case *opFlag:
		runOP(ckt)
	}
}

func runOP(ckt *netlist.Circuit) {
	res, err := sim.OP(ckt, sim.DCOpts{})
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.V))
	for n := range res.V {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("node voltages:")
	for _, n := range names {
		fmt.Printf("  v(%s) = %s\n", n, units.Format(res.V[n], "V"))
	}
	if len(res.MOS) > 0 {
		fmt.Println("transistors:")
		mnames := make([]string, 0, len(res.MOS))
		for n := range res.MOS {
			mnames = append(mnames, n)
		}
		sort.Strings(mnames)
		for _, n := range mnames {
			op := res.MOS[n]
			fmt.Printf("  %s: %s id=%s gm=%s gds=%s\n", n, op.Region,
				units.Format(op.ID, "A"), units.Format(op.GM, "S"), units.Format(op.GDS, "S"))
		}
	}
	fmt.Printf("supply power: %s\n", units.Format(res.SupplyPower(ckt), "W"))
	fmt.Printf("(%d Newton iterations)\n", res.Iterations)
}

func runAC(ckt *netlist.Circuit, span, out string, ppd int) {
	if out == "" {
		fatal(fmt.Errorf("-ac requires -out node"))
	}
	lo, hi, err := parseSpan(span)
	if err != nil {
		fatal(err)
	}
	op, err := sim.OP(ckt, sim.DCOpts{})
	if err != nil {
		fatal(err)
	}
	ac, err := sim.AC(ckt, op, sim.ACOpts{FStart: lo, FStop: hi, PointsPerDecade: ppd})
	if err != nil {
		fatal(err)
	}
	h, err := ac.Transfer(out)
	if err != nil {
		fatal(err)
	}
	mag, ph := sim.GainPhase(h)
	fmt.Println("freq,mag_db,phase_deg")
	for i, f := range ac.Freqs {
		fmt.Printf("%g,%.4f,%.3f\n", f, mag[i], ph[i])
	}
	m, err := ac.Characterize(out)
	if err == nil {
		fmt.Fprintf(os.Stderr, "dc gain %.2f dB, f3dB %s, unity %s, PM %.1f°\n",
			m.DCGainDB, units.Format(m.F3DBHz, "Hz"), units.Format(m.UnityGainHz, "Hz"), m.PhaseMargin)
	}
}

func runNoise(ckt *netlist.Circuit, span, out string, ppd int) {
	if out == "" {
		fatal(fmt.Errorf("-noise requires -out node"))
	}
	lo, hi, err := parseSpan(span)
	if err != nil {
		fatal(err)
	}
	op, err := sim.OP(ckt, sim.DCOpts{})
	if err != nil {
		fatal(err)
	}
	res, err := sim.Noise(ckt, op, sim.NoiseOpts{
		Output: out, FStart: lo, FStop: hi, PointsPerDecade: ppd,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println("freq,psd_v2_per_hz")
	for i, f := range res.Freqs {
		fmt.Printf("%g,%.6g\n", f, res.PSD[i])
	}
	fmt.Fprintf(os.Stderr, "integrated output noise: %s RMS\n", units.Format(res.RMS(), "V"))
	fmt.Fprintln(os.Stderr, "per-element contributions (RMS):")
	names := make([]string, 0, len(res.ByElement))
	for n := range res.ByElement {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", n, units.Format(math.Sqrt(res.ByElement[n]), "V"))
	}
}

func runTran(ckt *netlist.Circuit, span, out string) {
	if out == "" {
		fatal(fmt.Errorf("-tran requires -out node"))
	}
	step, stop, err := parseSpan(span)
	if err != nil {
		fatal(err)
	}
	res, err := sim.Tran(ckt, sim.TranOpts{TStep: step, TStop: stop, Probes: []string{out}})
	if err != nil {
		fatal(err)
	}
	w, err := res.Waveform(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println("time,v")
	for i, t := range res.T {
		fmt.Printf("%g,%.6g\n", t, w[i])
	}
}

func runTF(ckt *netlist.Circuit, in, out string) {
	if out == "" {
		fatal(fmt.Errorf("-tf requires -out node"))
	}
	an, err := dpi.Build(ckt, dpi.Options{Input: in, IncludeCaps: true})
	if err != nil {
		fatal(err)
	}
	tf, err := an.TransferFunction(out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("H(%s→%s) = %s\n", an.Input, out, tf)
	fmt.Println("\nloops:")
	for _, l := range an.Graph.DescribeLoops() {
		fmt.Println(" ", l)
	}
}

func parseSpan(s string) (float64, float64, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("span %q is not lo:hi", s)
	}
	a, err := units.Parse(lo)
	if err != nil {
		return 0, 0, err
	}
	b, err := units.Parse(hi)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spicelet:", err)
	os.Exit(1)
}
