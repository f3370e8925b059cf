// Package dsp provides the signal-processing substrate for ADC
// verification: a radix-2 FFT, window functions, coherent-sampling
// helpers, and spectral metrics (SNDR, SFDR, THD, ENOB) plus code-domain
// INL/DNL extraction. The behavioral pipeline simulator uses it to prove
// that a synthesized stage-resolution configuration really delivers the
// target effective number of bits.
package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFT computes the in-place radix-2 decimation-in-time FFT of x.
// len(x) must be a power of two.
func FFT(x []complex128) error {
	n := len(x)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	// Bit reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Rect(1, ang)
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
	return nil
}

// Window identifies a window function for spectral analysis.
type Window int

const (
	Rectangular Window = iota
	Hann
	Blackman
)

// Apply multiplies x in place by the window and returns the coherent gain
// (mean window value) for amplitude correction. The windows are the
// periodic (DFT-even) forms — denominator n, not n−1 — which is what
// spectral analysis wants: the implied periodic extension has no seam, so
// a coherent tone stays leakage-free. (The symmetric n−1 form belongs to
// FIR filter design, and divides by zero for n == 1.) Slices shorter than
// two samples are left untouched with unit gain.
func (w Window) Apply(x []float64) float64 {
	n := len(x)
	if n < 2 {
		return 1
	}
	sum := 0.0
	for i := range x {
		var c float64
		t := 2 * math.Pi * float64(i) / float64(n)
		switch w {
		case Rectangular:
			c = 1
		case Hann:
			c = 0.5 * (1 - math.Cos(t))
		case Blackman:
			c = 0.42 - 0.5*math.Cos(t) + 0.08*math.Cos(2*t)
		}
		x[i] *= c
		sum += c
	}
	return sum / float64(n)
}

// CoherentBin returns a frequency (Hz) close to fTarget that lands an
// exact odd number of cycles in n samples at rate fs, guaranteeing
// leakage-free spectra with a rectangular window.
func CoherentBin(fs, fTarget float64, n int) (fSig float64, cycles int) {
	cycles = int(math.Round(fTarget / fs * float64(n)))
	if cycles < 1 {
		cycles = 1
	}
	if cycles%2 == 0 {
		cycles++ // odd cycle counts avoid sharing factors with n (a power of 2)
	}
	if cycles >= n/2 {
		cycles = n/2 - 1
	}
	return fs * float64(cycles) / float64(n), cycles
}

// Spectrum holds a one-sided power spectrum of a real signal.
type Spectrum struct {
	Power []float64 // bins 0..N/2, |X_k|² normalized
	Fs    float64
	N     int
}

// PowerSpectrum computes the one-sided power spectrum of x after applying
// the window.
func PowerSpectrum(x []float64, fs float64, w Window) (*Spectrum, error) {
	n := len(x)
	buf := make([]float64, n)
	copy(buf, x)
	cg := w.Apply(buf)
	cx := make([]complex128, n)
	for i, v := range buf {
		cx[i] = complex(v, 0)
	}
	if err := FFT(cx); err != nil {
		return nil, err
	}
	half := n/2 + 1
	p := make([]float64, half)
	norm := 1 / (float64(n) * cg)
	for k := 0; k < half; k++ {
		m := cmplx.Abs(cx[k]) * norm
		p[k] = m * m
		if k != 0 && k != n/2 {
			// Fold the negative-frequency half in POWER: bin k and bin
			// N−k each hold |X|², so the one-sided bin carries 2·|X|².
			// (Folding in amplitude before squaring would give 4×.) A
			// full-scale unit sine thus lands 0.5 = −3.01 dB in its bin,
			// and the one-sided bins sum to the signal's mean square.
			p[k] *= 2
		}
	}
	return &Spectrum{Power: p, Fs: fs, N: n}, nil
}
