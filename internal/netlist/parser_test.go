package netlist

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const rcDeck = `* simple RC divider
V1 in 0 DC 3.3 AC 1
R1 in out 10k
C1 out 0 1p
.end
`

// find returns the element named name, compared case-insensitively as
// SPICE names are, or nil.
func find(c *Circuit, name string) *Element {
	for _, e := range c.Elements {
		if strings.EqualFold(e.Name, name) {
			return e
		}
	}
	return nil
}

func TestParseRC(t *testing.T) {
	c, err := Parse(rcDeck)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Elements) != 3 {
		t.Fatalf("got %d elements, want 3", len(c.Elements))
	}
	r := find(c, "R1")
	if r == nil || r.Type != Resistor || r.Value != 10e3 || r.Nodes[0] != "in" || r.Nodes[1] != "out" {
		t.Fatalf("R1 = %+v", r)
	}
	cc := find(c, "c1")
	if cc == nil || cc.Type != Capacitor || cc.Value != 1e-12 {
		t.Fatalf("C1 = %+v", cc)
	}
	v := find(c, "V1")
	if v == nil || v.Src == nil || v.Src.DC != 3.3 || v.Src.ACMag != 1 {
		t.Fatalf("V1 = %+v src %+v", v, v.Src)
	}
}

func TestParseContinuationAndComments(t *testing.T) {
	deck := `* title
R1 a b
+ 2k ; trailing comment
* full comment line
C1 b 0 3p
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if r := find(c, "r1"); r == nil || r.Value != 2e3 {
		t.Fatalf("continuation failed: %+v", r)
	}
	if len(c.Elements) != 2 {
		t.Fatalf("got %d elements", len(c.Elements))
	}
}

func TestParseMOSAndModel(t *testing.T) {
	deck := `* mos
M1 d g s 0 nch W=10u L=0.25u
.model nch nmos (vto=0.45 kp=180u lambda=0.06)
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	m := find(c, "M1")
	if m == nil || m.Type != MOS {
		t.Fatalf("M1 = %+v", m)
	}
	if w := m.Param("w", 0); math.Abs(w-10e-6) > 1e-18 {
		t.Fatalf("W = %g", w)
	}
	model, err := c.ModelFor(m)
	if err != nil {
		t.Fatal(err)
	}
	if model.Type != "nmos" || model.Param("vto", 0) != 0.45 {
		t.Fatalf("model = %+v", model)
	}
	if kp := model.Param("kp", 0); math.Abs(kp-180e-6) > 1e-12 {
		t.Fatalf("kp = %g", kp)
	}
	// Defaults work.
	if g := model.Param("gamma", 0.5); g != 0.5 {
		t.Fatalf("default param = %g", g)
	}
}

func TestParseControlledSources(t *testing.T) {
	deck := `* ctl
E1 out 0 inp inn 1000
G1 out 0 inp inn 2m
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	e := find(c, "e1")
	if e == nil || e.Type != VCVS || e.Value != 1000 || len(e.Nodes) != 4 {
		t.Fatalf("E1 = %+v", e)
	}
	g := find(c, "g1")
	if g == nil || g.Type != VCCS || math.Abs(g.Value-2e-3) > 1e-15 {
		t.Fatalf("G1 = %+v", g)
	}
}

func TestParseSinSource(t *testing.T) {
	deck := `* sin
V1 in 0 SIN(1.65 0.5 1MEG) AC 1
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	s := find(c, "v1").Src
	if s.Kind != SrcSin || s.Sin.VO != 1.65 || s.Sin.VA != 0.5 || s.Sin.Freq != 1e6 {
		t.Fatalf("src = %+v", s)
	}
	if s.ACMag != 1 {
		t.Fatalf("ACMag = %g", s.ACMag)
	}
}

func TestParsePulseAndPWL(t *testing.T) {
	deck := `* waveforms
V1 ck 0 PULSE(0 3.3 0 100p 100p 12n 25n)
V2 ramp 0 PWL(0 0 1u 1 2u 0)
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	p := find(c, "v1").Src
	if p.Kind != SrcPulse || p.Pulse.V2 != 3.3 || math.Abs(p.Pulse.PER-25e-9) > 1e-20 {
		t.Fatalf("pulse = %+v", p)
	}
	w := find(c, "v2").Src
	if w.Kind != SrcPWL || len(w.PWL) != 3 || w.PWL[1].V != 1 {
		t.Fatalf("pwl = %+v", w)
	}
}

// TestParsePWLDuplicateTime: coincident PWL time points are the SPICE
// idiom for an instantaneous step; the parser must keep both points in
// order so evaluation can pick the later value.
func TestParsePWLDuplicateTime(t *testing.T) {
	c, err := Parse("* step\nV1 in 0 PWL(0 0 1u 0 1u 1 2u 1)\n")
	if err != nil {
		t.Fatal(err)
	}
	w := find(c, "v1").Src
	if w.Kind != SrcPWL || len(w.PWL) != 4 {
		t.Fatalf("pwl = %+v", w)
	}
	if w.PWL[1].T != w.PWL[2].T || w.PWL[1].V != 0 || w.PWL[2].V != 1 {
		t.Fatalf("duplicate-time step not preserved in order: %+v", w.PWL)
	}
}

func TestParseParamSubstitution(t *testing.T) {
	deck := `* params
.param cval=2p rbig=100k
R1 a 0 {rbig}
C1 a 0 {cval}
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if find(c, "r1").Value != 100e3 {
		t.Fatalf("rbig = %g", find(c, "r1").Value)
	}
	if find(c, "c1").Value != 2e-12 {
		t.Fatalf("cval = %g", find(c, "c1").Value)
	}
	if _, err := Parse("R1 a 0 {nope}\n"); err == nil {
		t.Fatal("expected undefined-parameter error")
	}
}

func TestSubcktFlatten(t *testing.T) {
	deck := `* hierarchy
.subckt divider top bot mid
R1 top mid 1k
R2 mid bot 1k
.ends
V1 in 0 DC 1
X1 in 0 tap divider
X2 tap 0 tap2 divider
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	// 1 source + 2 instances × 2 resistors.
	if len(c.Elements) != 5 {
		t.Fatalf("got %d elements, want 5: %v", len(c.Elements), c)
	}
	r := find(c, "x1.r1")
	if r == nil {
		t.Fatal("flattened element x1.r1 missing")
	}
	if r.Nodes[0] != "in" || r.Nodes[1] != "tap" {
		t.Fatalf("x1.r1 nodes = %v", r.Nodes)
	}
	r2 := find(c, "x2.r2")
	if r2 == nil || r2.Nodes[0] != "tap2" || r2.Nodes[1] != "0" {
		t.Fatalf("x2.r2 = %+v", r2)
	}
}

func TestSubcktNested(t *testing.T) {
	deck := `* nested
.subckt unit a b
R1 a b 1k
.ends
.subckt pair x y
X1 x m unit
X2 m y unit
.ends
Xtop in 0 pair
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Elements) != 2 {
		t.Fatalf("got %d elements, want 2", len(c.Elements))
	}
	inner := find(c, "xtop.x1.r1")
	if inner == nil {
		names := []string{}
		for _, e := range c.Elements {
			names = append(names, e.Name)
		}
		t.Fatalf("nested flatten missing, have %v", names)
	}
	// Internal node m is namespaced.
	if inner.Nodes[1] != "xtop.m" {
		t.Fatalf("inner nodes = %v", inner.Nodes)
	}
}

func TestSubcktErrors(t *testing.T) {
	if _, err := Parse("X1 a b nope\n"); err == nil {
		t.Fatal("expected undefined subckt error")
	}
	if _, err := Parse(".subckt s a\nR1 a 0 1k\n"); err == nil {
		t.Fatal("expected unterminated subckt error")
	}
	rec := `.subckt s a
X1 a s
.ends
X1 in s
`
	if _, err := Parse(rec); err == nil {
		t.Fatal("expected recursion error")
	}
	if _, err := Parse(".subckt s a\nR1 a 0 1\n.ends\nX1 a b s\n"); err == nil {
		t.Fatal("expected port-count error")
	}
}

func TestParseSwitch(t *testing.T) {
	deck := `* sw
S1 a b swmod phase=1
.model swmod sw (ron=100 roff=1e12)
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	s := find(c, "s1")
	if s == nil || s.Type != Switch || s.Param("phase", 0) != 1 {
		t.Fatalf("S1 = %+v", s)
	}
	m, err := c.ModelFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.Param("ron", 0) != 100 {
		t.Fatalf("ron = %g", m.Param("ron", 0))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"Q1 a b c qmod\n",      // unsupported element
		"R1 a\n",               // missing value
		"M1 d g s nch\n",       // missing bulk
		"E1 a 0 b 0\n",         // missing gain
		"E1 a 0 b 0 10 junk\n", // token after the gain
		"G1 a 0 b 0 1m 7 8\n",  // tokens after the gain
		"R1 a 0 zzz\n",         // bad value
		".model only1arg\n",    // incomplete model
		"V1 a 0 SIN(1 2)\n",    // SIN too short
		"V1 a 0 PULSE(1 2)\n",  // PULSE too short
		"V1 a 0 PWL(1 2 3)\n",  // odd PWL
		"V1 a 0 SIN(0 1 1meg) PULSE(0 1 0 1n 1n 5n 10n)\n", // two waveforms
		"R1 a 0 1k extra\n",   // non key=value trailing
		".param broken\n",     // bad param syntax
		"V1 a 0 banana\n",     // bad source token
		".ends\n",             // ends without subckt
		".subckt\nR1 a 0 1\n", // subckt without name
		"X1 justsub\n",        // X too short
	}
	for _, deck := range bad {
		if _, err := Parse(deck); err == nil {
			t.Errorf("Parse(%q) should fail", deck)
		}
	}
}

func TestModelErrors(t *testing.T) {
	c, _ := Parse("M1 d g s 0 missing W=1u L=1u\n")
	m := find(c, "m1")
	if _, err := c.ModelFor(m); err == nil {
		t.Fatal("expected undefined model error")
	}
	r := &Element{Name: "r1", Type: Resistor, Nodes: []string{"a", "0"}}
	if _, err := c.ModelFor(r); err == nil {
		t.Fatal("expected no-model error")
	}
}

func TestCircuitAddValidation(t *testing.T) {
	c := New("t")
	if err := c.Add(&Element{Name: "r1", Type: Resistor, Nodes: []string{"a"}}); err == nil {
		t.Fatal("expected node-count error")
	}
	if err := c.Add(&Element{Name: "r1", Type: Resistor, Nodes: []string{"a", ""}}); err == nil {
		t.Fatal("expected empty-node error")
	}
}

// TestParseRejectsDuplicateNames: two cards with one name must fail at
// parse time. Accepted, the two M1 cards below both simulate with the
// last card's W (every drain reads the same voltage) and report as one
// device, and the two V1 cards share one branch row and leave the MNA
// matrix singular.
func TestParseRejectsDuplicateNames(t *testing.T) {
	decks := map[string]string{
		"two M1": `* duplicate MOS
V1 vdd 0 DC 3.3
VG g 0 DC 1.2
R1 vdd d1 10k
R2 vdd d2 10k
M1 d1 g 0 0 nch W=10u L=1u
M1 d2 g 0 0 nch W=1u L=1u
.model nch nmos (vto=0.45 kp=180u)
`,
		"two V1": `* duplicate source
V1 a 0 DC 1
V1 b 0 DC 2
R1 a b 1k
`,
		"case-insensitive": `* m1 vs M1
R1 a 0 1k
r1 a b 2k
`,
		"flattened": `* two instances named X1
.subckt div a b
R1 a b 1k
.ends
X1 in mid div
X1 mid 0 div
`,
	}
	for name, deck := range decks {
		if _, err := Parse(deck); err == nil || !strings.Contains(err.Error(), "duplicate element name") {
			t.Errorf("%s: Parse error %v, want a duplicate element name error", name, err)
		}
	}
	c := New("t")
	c.MustAdd(&Element{Name: "M1", Type: Resistor, Nodes: []string{"a", "0"}, Value: 1})
	if err := c.Add(&Element{Name: "m1", Type: Resistor, Nodes: []string{"b", "0"}, Value: 1}); err == nil {
		t.Fatal("Add accepted m1 after M1")
	}
	if len(c.Elements) != 1 {
		t.Fatalf("rejected element was appended: %d elements", len(c.Elements))
	}
}

func TestStringRoundTrip(t *testing.T) {
	c, err := Parse(rcDeck)
	if err != nil {
		t.Fatal(err)
	}
	out := c.String()
	c2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if len(c2.Elements) != len(c.Elements) {
		t.Fatalf("round trip lost elements:\n%s", out)
	}
	if !strings.Contains(out, ".end") {
		t.Fatal("missing .end")
	}
}

func TestAnalysisCardsIgnored(t *testing.T) {
	deck := "R1 a 0 1k\n.op\n.ac dec 10 1 1G\n.tran 1n 1u\n"
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Elements) != 1 {
		t.Fatalf("got %d elements", len(c.Elements))
	}
}

func TestElemTypeStrings(t *testing.T) {
	cases := map[ElemType]string{
		Resistor: "R", Capacitor: "C", VSource: "V", ISource: "I",
		VCVS: "E", VCCS: "G", MOS: "M", Switch: "S", ElemType(99): "?",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestMustAddPanics(t *testing.T) {
	c := New("t")
	defer func() {
		if recover() == nil {
			t.Fatal("MustAdd with bad node count should panic")
		}
	}()
	c.MustAdd(&Element{Name: "r1", Type: Resistor, Nodes: []string{"a"}})
}

func TestStringRendersEveryType(t *testing.T) {
	deck := `* everything
V1 in 0 DC 1 AC 0.5 2
I1 0 b DC 1m
R1 in b 1k
C1 b 0 1p
E1 c 0 in 0 10
G1 0 c in 0 1m
M1 d in 0 0 nch W=1u L=0.25u
S1 d b swm phase=2
.model nch nmos (vto=0.45)
.model swm sw (ron=100)
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	out := c.String()
	for _, want := range []string{"m1 d in 0 0 nch", "s1 d b swm", "AC 0.5", ".model nch nmos", "w=1e-06"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String() missing %q:\n%s", want, out)
		}
	}
	// And it re-parses.
	if _, err := Parse(out); err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
}

// TestParseTitle: a '*' title loses the space after the star, so a
// String round trip leaves it alone; a plain first line that is not a
// card is the title when more lines follow, and a card error when it is
// the whole deck.
func TestParseTitle(t *testing.T) {
	for deck, want := range map[string]string{
		"* 000\n.end\n":               "000",
		"*\trc  lowpass \nR1 a 0 1\n": "rc  lowpass",
		"rc filter\nR1 a 0 1k\n":      "rc filter",
		"x y\n* comment\n":            "x y",
	} {
		c, err := Parse(deck)
		if err != nil {
			t.Fatalf("Parse(%q): %v", deck, err)
		}
		if c.Title != want {
			t.Fatalf("Parse(%q) title %q, want %q", deck, c.Title, want)
		}
		c2, err := Parse(c.String())
		if err != nil || c2.Title != want {
			t.Fatalf("round trip of %q: title %q, err %v", deck, c2.Title, err)
		}
	}
	if _, err := Parse("rc filter\n"); err == nil {
		t.Fatal("a one-line deck that is not a card should fail")
	}
}

// TestFlattenedNamesRoundTrip: a flattened subcircuit element keeps its
// type through String and Parse, as do the dotted names the MDAC builders
// give amplifier devices.
func TestFlattenedNamesRoundTrip(t *testing.T) {
	deck := "* h\n.subckt cell a b\nR1 a b 1k\nM1 a b 0 0 nch\n.ends\nX1 in 0 cell\nA.M2 in in 0 0 nch\n.model nch nmos ()\n"
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(c.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, c)
	}
	for _, e := range c.Elements {
		if e2 := find(c2, e.Name); e2 == nil || e2.Type != e.Type {
			t.Fatalf("%s (%v) came back as %+v", e.Name, e.Type, e2)
		}
	}
}

// TestStringKeepsSourceWaveforms: SIN, PULSE and PWL sources come back
// from a String round trip with their kind and every parameter.
func TestStringKeepsSourceWaveforms(t *testing.T) {
	deck := `* sources
V1 a 0 PULSE(0 1 1n 0.1n 0.1n 5n 10n)
V2 b 0 DC 0.5 AC 0 90 PWL(0 0 1n 1 2n 0.5)
I1 0 c SIN(0.1 1m 1meg 2n 45)
R1 a b 1k
C1 b 0 1p
R2 c 0 1k
`
	c, err := Parse(deck)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(c.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, c)
	}
	for i, kind := range []SourceKind{SrcPulse, SrcPWL, SrcSin} {
		if src := c2.Elements[i].Src; src.Kind != kind || !reflect.DeepEqual(src, c.Elements[i].Src) {
			t.Fatalf("%s came back as %+v, was %+v:\n%s", c.Elements[i].Name, *src, *c.Elements[i].Src, c)
		}
	}
}

// FuzzParse: a deck Parse accepts renders, through String, to a deck
// that parses back into an equal circuit, element by element and model
// by model, and one round trip reaches String's fixed point. The seed
// corpus is in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, deck string) {
		c, err := Parse(deck)
		if err != nil {
			return
		}
		once := c.String()
		c2, err := Parse(once)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", once, deck, err)
		}
		if c2.Title != c.Title || len(c2.Elements) != len(c.Elements) || !reflect.DeepEqual(c2.Models, c.Models) {
			t.Fatalf("re-parse of %q (from %q) changed the title, element count or models", once, deck)
		}
		for i, e := range c.Elements {
			if e2 := c2.Elements[i]; !reflect.DeepEqual(e2, e) {
				t.Fatalf("element %d came back as %+v %+v, was %+v %+v (deck %q)", i, *e2, e2.Src, *e, e.Src, deck)
			}
		}
		if twice := c2.String(); twice != once {
			t.Fatalf("String is not a fixed point after one round trip:\nonce  %q\ntwice %q", once, twice)
		}
	})
}
