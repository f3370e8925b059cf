package units

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"1", 1},
		{"-3.5", -3.5},
		{"2.5u", 2.5e-6},
		{"2.5U", 2.5e-6},
		{"10pF", 10e-12},
		{"40MEG", 40e6},
		{"40meg", 40e6},
		{"40M", 40e-3}, // SPICE: M is milli
		{"1.5e-3", 1.5e-3},
		{"1E3", 1e3},
		{"3k3", 3e3}, // trailing digits after suffix are unit-ish, ignored
		{"100n", 100e-9},
		{"0.18u", 0.18e-6},
		{"5V", 5},
		{"2.2kOhm", 2.2e3},
		{"1f", 1e-15},
		{"7t", 7e12},
		{"1g", 1e9},
		{"+4", 4},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			continue
		}
		if !approx(got, c.want, 1e-12) {
			t.Errorf("Parse(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "--1", "1..2", "  ", "1 2", "1?", "1e308k", "-2e303meg"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %g, want error", in, v)
		}
	}
}

func TestParseExponentVsUnit(t *testing.T) {
	// "1e" should not eat 'e' as exponent start when no digits follow.
	// Here 'e' is treated as a unit letter (no scale), value 1.
	v, err := Parse("1e")
	if err != nil {
		t.Fatalf("Parse(1e): %v", err)
	}
	if v != 1 {
		t.Fatalf("Parse(1e) = %g, want 1", v)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{2.5e-6, "2.5uF"},
		{0, "0F"},
		{1e3, "1kF"},
		{40e6, "40MEGF"},
	}
	for _, c := range cases {
		if got := Format(c.in, "F"); got != c.want {
			t.Errorf("Format(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatParseProperty(t *testing.T) {
	f := func(mant float64, exp int8) bool {
		if math.IsNaN(mant) || math.IsInf(mant, 0) {
			return true
		}
		// Constrain to a representable engineering range.
		e := int(exp)%12 - 6
		v := math.Mod(math.Abs(mant), 999) * math.Pow10(e)
		if v == 0 {
			return true
		}
		s := Format(v, "")
		got, err := Parse(s)
		return err == nil && approx(got, v, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDB(t *testing.T) {
	if got := DB(10); !approx(got, 20, 1e-12) {
		t.Errorf("DB(10) = %g, want 20", got)
	}
}

func TestDBRoundTripProperty(t *testing.T) {
	f := func(x float64) bool {
		v := math.Abs(x)
		if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || v > 1e150 {
			return true
		}
		return approx(math.Pow(10, DB(v)/20), v, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseMilAndMixedSuffixes(t *testing.T) {
	v, err := Parse("2mil")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 50.8e-6, 1e-9) {
		t.Fatalf("2mil = %g, want 50.8µ", v)
	}
	// "m" right after digits is milli even when followed by unit letters.
	v, err = Parse("3mV")
	if err != nil {
		t.Fatal(err)
	}
	if !approx(v, 3e-3, 1e-12) {
		t.Fatalf("3mV = %g", v)
	}
}
