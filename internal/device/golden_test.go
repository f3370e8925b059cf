package device

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// mosGoldenDigest is the SHA-256 of every OP field bit pattern over the
// golden grid below. It pins the square-law/Meyer model to the bit: any
// change to an expression or its operation order changes the digest.
const mosGoldenDigest = "541314c47f5acf80b7381bf8481eee07358a13af6e719c16b5290e60965af2a1"

// TestMOSGoldenBitExact evaluates MOSParams.Eval over a fixed grid of
// NMOS, PMOS and short-channel devices and terminal voltages, and
// compares a digest of every output bit against mosGoldenDigest. The
// grid reaches every region × direction × polarity cell and the clamped
// body-effect branch in a conducting region, which the test asserts, so
// the digest cannot silently skip a branch of the model.
func TestMOSGoldenBitExact(t *testing.T) {
	short := nmos()
	short.W, short.L = 3e-6, 0.18e-6
	short.Lambda, short.Gamma = 0.11, 0.38
	devices := []MOSParams{nmos(), pmos(), short}
	terminal := []float64{-1.7, -0.45, 0, 0.3, 0.62, 1.1, 2.4}
	bulk := []float64{-2.1, -0.6, 0, 1.3}

	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	type cell struct {
		pmos, reverse bool
		region        Region
	}
	seen := map[cell]int{}
	clamped := map[bool]int{} // conducting evaluations on the clamped branch, by polarity
	for _, p := range devices {
		pol := 1.0
		if p.PMOS {
			pol = -1
		}
		for _, vd := range terminal {
			for _, vg := range terminal {
				for _, vs := range terminal {
					for _, vb := range bulk {
						op := p.Eval(vd, vg, vs, vb)
						for _, f := range []float64{
							op.ID, op.GM, op.GDS, op.GMB, op.VGS, op.VDS, op.VOV,
							op.CGS, op.CGD, op.CGB, op.CDB, op.CSB,
						} {
							put(math.Float64bits(f))
						}
						put(uint64(op.Region))

						vds, vbs := pol*(vd-vs), pol*(vb-vs)
						reverse := vds < 0
						if reverse {
							vbs -= vds
						}
						seen[cell{p.PMOS, reverse, op.Region}]++
						if p.Phi-vbs < 1e-6 && op.Region != Cutoff {
							clamped[p.PMOS]++
						}
					}
				}
			}
		}
	}
	for _, pm := range []bool{false, true} {
		for _, rev := range []bool{false, true} {
			for _, r := range []Region{Cutoff, Triode, Saturation} {
				if seen[cell{pm, rev, r}] == 0 {
					t.Errorf("grid never reaches pmos=%v reverse=%v region=%v", pm, rev, r)
				}
			}
		}
		if clamped[pm] == 0 {
			t.Errorf("grid never reaches the clamped body-effect branch in a conducting region (pmos=%v)", pm)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != mosGoldenDigest {
		t.Fatalf("MOS model digest %s, want %s: an expression or its operation order changed", got, mosGoldenDigest)
	}
}
