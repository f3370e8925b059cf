// Package units provides SPICE-style engineering-notation parsing and
// formatting for physical quantities, plus small helpers for decibel
// conversion that the rest of the simulator and synthesis stack share.
//
// The grammar follows classic SPICE conventions: a decimal number followed
// by an optional scale suffix (f, p, n, u, m, k, meg, g, t) and optional
// trailing unit letters which are ignored ("10pF" parses as 10e-12).
// Suffix matching is case-insensitive; "M" means milli and "MEG" means 1e6,
// exactly as in Berkeley SPICE.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// scale maps a lower-cased SPICE suffix to its multiplier. Longer suffixes
// must be matched before their prefixes (meg before m, mil before m).
var scales = []struct {
	suffix string
	mult   float64
}{
	{"meg", 1e6},
	{"mil", 25.4e-6},
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
	{"a", 1e-18},
}

// Parse converts a SPICE-style value string such as "2.5u", "40MEG", "10pF"
// or "1.5e-3" into a float64. Trailing unit letters after a recognized
// suffix are ignored, as are unit letters with no suffix ("5V" == 5).
func Parse(s string) (float64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty value")
	}
	// Split the leading numeric part from the suffix.
	i := 0
	seenDigit := false
	for i < len(t) {
		c := t[i]
		switch {
		case c >= '0' && c <= '9':
			seenDigit = true
			i++
		case c == '.' || c == '+' || c == '-':
			i++
		case (c == 'e' || c == 'E') && i+1 < len(t) && isExpTail(t[i+1:]):
			i++
		default:
			goto done
		}
	}
done:
	if !seenDigit {
		return 0, fmt.Errorf("units: %q has no numeric part", s)
	}
	num := t[:i]
	rest := strings.ToLower(t[i:])
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number %q in %q: %v", num, s, err)
	}
	if rest == "" {
		return v, nil
	}
	for _, sc := range scales {
		if strings.HasPrefix(rest, sc.suffix) {
			// A scaled value past float64's range is an error, as an
			// unscaled one is in strconv.ParseFloat.
			if x := v * sc.mult; !math.IsInf(x, 0) {
				return x, nil
			}
			return 0, fmt.Errorf("units: %q overflows float64", s)
		}
	}
	// No scale suffix: the remainder must be unit letters only.
	for _, c := range rest {
		if !((c >= 'a' && c <= 'z') || c == 'Ω' || c == '/' || c == '^' || (c >= '0' && c <= '9')) {
			return 0, fmt.Errorf("units: unrecognized suffix %q in %q", rest, s)
		}
	}
	return v, nil
}

// isExpTail reports whether s looks like the tail of a float exponent:
// an optional sign followed by a digit. It distinguishes "1e3" (exponent)
// from "1e" with a trailing unit we should not eat.
func isExpTail(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	return len(s) > 0 && s[0] >= '0' && s[0] <= '9'
}

// MustParse is Parse for programmer-supplied literals; it panics on error.
func MustParse(s string) float64 {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// Format renders v with an engineering suffix and the given unit, choosing
// the scale so that the mantissa lies in [1, 1000) where possible:
// Format(2.5e-6, "F") == "2.5uF".
func Format(v float64, unit string) string {
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return trimFloat(v) + unit
	}
	type step struct {
		mult   float64
		suffix string
	}
	steps := []step{
		{1e12, "T"}, {1e9, "G"}, {1e6, "MEG"}, {1e3, "k"}, {1, ""},
		{1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
	}
	a := math.Abs(v)
	for _, st := range steps {
		if a >= st.mult {
			return trimFloat(v/st.mult) + st.suffix + unit
		}
	}
	return trimFloat(v/1e-15) + "f" + unit
}

func trimFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', 4, 64)
	return s
}

// DB converts a magnitude ratio to decibels (20·log10).
func DB(ratio float64) float64 { return 20 * math.Log10(ratio) }

// FromDB converts decibels to a magnitude ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/20) }

// PowerDB converts a power ratio to decibels (10·log10).
func PowerDB(ratio float64) float64 { return 10 * math.Log10(ratio) }
