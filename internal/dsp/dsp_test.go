package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFFTKnownValues(t *testing.T) {
	// FFT of [1,0,0,0] = [1,1,1,1].
	x := []complex128{1, 0, 0, 0}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
	// FFT of a single complex exponential concentrates in one bin.
	n := 64
	y := make([]complex128, n)
	k0 := 5
	for i := range y {
		ang := 2 * math.Pi * float64(k0) * float64(i) / float64(n)
		y[i] = cmplx.Rect(1, ang)
	}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	for k, v := range y {
		want := 0.0
		if k == k0 {
			want = float64(n)
		}
		if math.Abs(cmplx.Abs(v)-want) > 1e-9 {
			t.Fatalf("bin %d = %g, want %g", k, cmplx.Abs(v), want)
		}
	}
}

func TestFFTBadLength(t *testing.T) {
	if err := FFT(make([]complex128, 3)); err == nil {
		t.Fatal("expected error for non-power-of-two")
	}
	if err := FFT(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// IFFT computes the inverse FFT (normalized by 1/N), the round trip
// oracle for FFT.
func IFFT(x []complex128) error {
	for i := range x {
		x[i] = cmplx.Conj(x[i])
	}
	if err := FFT(x); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] = cmplx.Conj(x[i]) / n
	}
	return nil
}

// Property: IFFT(FFT(x)) == x.
func TestFFTRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := func(seed int64, szRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (int(szRaw)%7 + 2) // 4..512
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
			orig[i] = x[i]
		}
		if err := FFT(x); err != nil {
			return false
		}
		if err := IFFT(x); err != nil {
			return false
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: Parseval — total time-domain energy equals spectral energy.
func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 256
		x := make([]complex128, n)
		timeE := 0.0
		for i := range x {
			v := r.Float64()*2 - 1
			x[i] = complex(v, 0)
			timeE += v * v
		}
		if err := FFT(x); err != nil {
			return false
		}
		freqE := 0.0
		for _, v := range x {
			freqE += real(v)*real(v) + imag(v)*imag(v)
		}
		freqE /= float64(n)
		return math.Abs(timeE-freqE) < 1e-9*(1+timeE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestCoherentBin(t *testing.T) {
	fs := 40e6
	n := 4096
	f, cycles := CoherentBin(fs, 2e6, n)
	if cycles%2 == 0 {
		t.Fatalf("cycles = %d, want odd", cycles)
	}
	// f must land exactly on a bin.
	k := f / fs * float64(n)
	if math.Abs(k-math.Round(k)) > 1e-9 {
		t.Fatalf("not on a bin: %g", k)
	}
	if math.Abs(f-2e6)/2e6 > 0.01 {
		t.Fatalf("f = %g too far from target", f)
	}
	// Extremes clamp.
	if _, c := CoherentBin(fs, 0, n); c < 1 {
		t.Fatal("cycles must be ≥1")
	}
	if _, c := CoherentBin(fs, fs, n); c >= n/2 {
		t.Fatal("cycles must stay below Nyquist")
	}
}

// Golden absolute-power contract of the one-sided fold: a coherent unit
// sine concentrates exactly its mean square — 0.5, i.e. −3.01 dBFS — in
// its bin, and the one-sided bins sum to the time-domain mean square
// (one-sided Parseval). The pre-fix fold doubled amplitude before
// squaring, putting 4× power (+3.01 dB) in every non-DC bin.
func TestPowerSpectrumUnitSineGolden(t *testing.T) {
	n := 4096
	fs := 40e6
	fSig, k := CoherentBin(fs, 2.3e6, n)
	x := make([]float64, n)
	meanSq := 0.0
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * fSig * float64(i) / fs)
		meanSq += x[i] * x[i]
	}
	meanSq /= float64(n)
	sp, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.Power[k]; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("unit-sine bin power = %.12g (%.3f dB), want 0.5 (−3.01 dB)",
			got, 10*math.Log10(got))
	}
	total := 0.0
	for _, p := range sp.Power {
		total += p
	}
	if math.Abs(total-meanSq) > 1e-9 {
		t.Fatalf("one-sided Parseval: Σ bins = %.12g, mean square = %.12g", total, meanSq)
	}
	// The absolute metrics derived from the spectrum inherit the scale.
	m, err := sp.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SignalPow-0.5) > 1e-9 {
		t.Fatalf("SignalPow = %g, want 0.5", m.SignalPow)
	}
}

// DC and Nyquist have no negative-frequency twin and must not be doubled:
// a pure DC offset shows up at exactly its squared value.
func TestPowerSpectrumDCNotDoubled(t *testing.T) {
	n := 256
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.25
	}
	sp, err := PowerSpectrum(x, 1, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Power[0]-0.0625) > 1e-12 {
		t.Fatalf("DC power = %g, want 0.0625", sp.Power[0])
	}
	// Nyquist: alternating ±A concentrates A² in bin N/2.
	for i := range x {
		x[i] = 0.5
		if i%2 == 1 {
			x[i] = -0.5
		}
	}
	sp, err = PowerSpectrum(x, 1, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Power[n/2]-0.25) > 1e-12 {
		t.Fatalf("Nyquist power = %g, want 0.25", sp.Power[n/2])
	}
}

// Periodic-window contract: the periodic Hann sums to exactly n/2 (its
// cosine term cancels over a whole period), so the coherent gain is
// exactly 0.5 — and a one-sample slice must pass through untouched
// instead of producing NaN from the symmetric form's n−1 denominator.
func TestWindowPeriodicForm(t *testing.T) {
	for _, n := range []int{2, 8, 64, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1
		}
		if cg := Hann.Apply(x); math.Abs(cg-0.5) > 1e-12 {
			t.Fatalf("n=%d: periodic Hann coherent gain = %.15g, want exactly 0.5", n, cg)
		}
	}
	one := []float64{3}
	for _, w := range []Window{Rectangular, Hann, Blackman} {
		if cg := w.Apply(one); cg != 1 || one[0] != 3 {
			t.Fatalf("window %v on n=1: cg=%g x=%g (want pass-through)", w, cg, one[0])
		}
		if math.IsNaN(one[0]) {
			t.Fatalf("window %v produced NaN for n=1", w)
		}
	}
	if cg := Hann.Apply(nil); cg != 1 {
		t.Fatalf("nil slice: cg = %g", cg)
	}
}

func TestSNDRIdealQuantizer(t *testing.T) {
	// An ideal B-bit quantizer shows SNDR ≈ 6.02B + 1.76 dB.
	for _, bits := range []int{8, 10, 12} {
		n := 4096
		fs := 40e6
		fSig, _ := CoherentBin(fs, 2.3e6, n)
		levels := float64(int(1) << bits)
		samples := make([]float64, n)
		for i := range samples {
			v := 0.5 + 0.5*math.Sin(2*math.Pi*fSig*float64(i)/fs) // full scale [0,1]
			q := math.Floor(v*levels) / levels
			if q > (levels-1)/levels {
				q = (levels - 1) / levels
			}
			samples[i] = q
		}
		m, err := SineTestMetrics(samples, fs)
		if err != nil {
			t.Fatal(err)
		}
		want := 6.02*float64(bits) + 1.76
		if math.Abs(m.SNDRdB-want) > 1.5 {
			t.Fatalf("%d-bit SNDR = %g dB, want ≈ %g", bits, m.SNDRdB, want)
		}
		if math.Abs(m.ENOB-float64(bits)) > 0.3 {
			t.Fatalf("%d-bit ENOB = %g", bits, m.ENOB)
		}
	}
}

func TestTHDDetectsHarmonics(t *testing.T) {
	n := 4096
	fs := 1e6
	fSig, k := CoherentBin(fs, 50e3, n)
	clean := make([]float64, n)
	dirty := make([]float64, n)
	for i := range clean {
		ph := 2 * math.Pi * fSig * float64(i) / fs
		clean[i] = math.Sin(ph)
		dirty[i] = math.Sin(ph) + 0.01*math.Sin(3*ph) // −40 dB HD3
	}
	_ = k
	mc, err := SineTestMetrics(clean, fs)
	if err != nil {
		t.Fatal(err)
	}
	md, err := SineTestMetrics(dirty, fs)
	if err != nil {
		t.Fatal(err)
	}
	if md.THDdB > -39 || md.THDdB < -41 {
		t.Fatalf("THD = %g dB, want ≈ −40", md.THDdB)
	}
	if mc.SNDRdB < md.SNDRdB+30 {
		t.Fatalf("clean SNDR %g should far exceed dirty %g", mc.SNDRdB, md.SNDRdB)
	}
	if md.SFDRdB > 41 || md.SFDRdB < 39 {
		t.Fatalf("SFDR = %g dB, want ≈ 40", md.SFDRdB)
	}
}

func TestWindows(t *testing.T) {
	x := make([]float64, 64)
	for i := range x {
		x[i] = 1
	}
	cg := Hann.Apply(x)
	if math.Abs(cg-0.5) > 0.02 {
		t.Fatalf("Hann coherent gain = %g, want ≈0.5", cg)
	}
	if x[0] != 0 || x[len(x)/2] < 0.9 {
		t.Fatalf("Hann shape wrong: %g %g", x[0], x[len(x)/2])
	}
	y := make([]float64, 64)
	for i := range y {
		y[i] = 1
	}
	if cg := Rectangular.Apply(y); cg != 1 {
		t.Fatalf("Rect gain = %g", cg)
	}
	z := make([]float64, 64)
	for i := range z {
		z[i] = 1
	}
	if cg := Blackman.Apply(z); math.Abs(cg-0.42) > 0.02 {
		t.Fatalf("Blackman gain = %g, want ≈0.42", cg)
	}
}

func TestHannLeakageSuppression(t *testing.T) {
	// Non-coherent tone: Hann window must localize energy far better than
	// rectangular. Compare power three bins away from the signal.
	n := 1024
	fs := 1e6
	f := fs * (100.5) / float64(n) // half-bin offset: worst case
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	rect, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	hann, err := PowerSpectrum(x, fs, Hann)
	if err != nil {
		t.Fatal(err)
	}
	far := 110
	if hann.Power[far] >= rect.Power[far] {
		t.Fatalf("Hann leakage %g should be below rectangular %g", hann.Power[far], rect.Power[far])
	}
}

func TestINLDNL(t *testing.T) {
	// Perfectly uniform histogram → zero INL/DNL.
	counts := make([]int, 16)
	for i := range counts {
		counts[i] = 100
	}
	inl, dnl, err := INLDNL(counts)
	if err != nil {
		t.Fatal(err)
	}
	if PeakAbs(inl) > 1e-12 || PeakAbs(dnl) > 1e-12 {
		t.Fatalf("uniform histogram gave INL %g DNL %g", PeakAbs(inl), PeakAbs(dnl))
	}
	// A code that is 50% wide has DNL −0.5.
	counts[5] = 50
	_, dnl, err = INLDNL(counts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dnl[5]+0.48) > 0.05 { // ideal recomputed with the short bin
		t.Fatalf("DNL[5] = %g, want ≈ −0.5", dnl[5])
	}
	// Errors.
	if _, _, err := INLDNL(make([]int, 2)); err == nil {
		t.Fatal("expected short-histogram error")
	}
	if _, _, err := INLDNL(make([]int, 8)); err == nil {
		t.Fatal("expected empty-histogram error")
	}
}

// Bin k of a spectrum lies at k·Fs/N: a coherent tone there puts its
// power in that bin.
func TestSpectrumBinFreq(t *testing.T) {
	const fs, n = 1000.0, 64
	f, k := CoherentBin(fs, 160, n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f * float64(i) / fs)
	}
	s, err := PowerSpectrum(x, fs, Rectangular)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for i, p := range s.Power {
		if p > s.Power[peak] {
			peak = i
		}
	}
	if peak != k || f != float64(k)*s.Fs/float64(s.N) {
		t.Fatalf("tone at %g Hz peaks in bin %d, want bin %d", f, peak, k)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	s := &Spectrum{Power: make([]float64, 4), Fs: 1, N: 8}
	if _, err := s.Analyze(0); err == nil {
		t.Fatal("expected short-spectrum error")
	}
	s2 := &Spectrum{Power: make([]float64, 64), Fs: 1, N: 128}
	if _, err := s2.Analyze(0); err == nil {
		t.Fatal("expected no-signal error")
	}
}
