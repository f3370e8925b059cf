// Package expr implements a small symbolic expression engine: constants,
// named variables, n-ary sums and products, and integer powers. It is the
// algebra in which the DPI/SFG flow carries circuit quantities (gm, ro, C,
// and the Laplace variable s), and in which Mason's gain rule assembles
// symbolic transfer functions before they are bound to numbers extracted
// from a DC simulation.
//
// Expressions are immutable; the constructors perform light canonical
// simplification (constant folding, flattening, identity elimination) so
// that transfer functions stay readable and evaluation stays cheap.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Expr is an immutable symbolic expression.
type Expr struct {
	kind  kind
	val   float64 // kConst
	name  string  // kVar
	args  []Expr  // kAdd, kMul
	base  *Expr   // kPow
	expnt int     // kPow
}

type kind uint8

const (
	kConst kind = iota
	kVar
	kAdd
	kMul
	kPow
)

// C returns a constant expression.
func C(v float64) Expr { return Expr{kind: kConst, val: v} }

// V returns a variable expression with the given name. The name "s" is,
// by convention throughout this project, the Laplace variable.
func V(name string) Expr {
	if name == "" {
		panic("expr: empty variable name")
	}
	return Expr{kind: kVar, name: name}
}

// Zero and One are the additive and multiplicative identities.
var (
	Zero = C(0)
	One  = C(1)
)

// IsConst reports whether e is a constant, returning its value.
func (e Expr) IsConst() (float64, bool) {
	if e.kind == kConst {
		return e.val, true
	}
	return 0, false
}

// IsZero reports whether e is the constant 0.
func (e Expr) IsZero() bool { return e.kind == kConst && e.val == 0 }

// Add returns the simplified sum of the given expressions.
func Add(xs ...Expr) Expr {
	var flat []Expr
	constSum := 0.0
	for _, x := range xs {
		switch x.kind {
		case kConst:
			constSum += x.val
		case kAdd:
			for _, a := range x.args {
				if c, ok := a.IsConst(); ok {
					constSum += c
				} else {
					flat = append(flat, a)
				}
			}
		default:
			flat = append(flat, x)
		}
	}
	if constSum != 0 {
		flat = append(flat, C(constSum))
	}
	switch len(flat) {
	case 0:
		return Zero
	case 1:
		return flat[0]
	}
	return Expr{kind: kAdd, args: flat}
}

// Mul returns the simplified product of the given expressions.
func Mul(xs ...Expr) Expr {
	var flat []Expr
	constProd := 1.0
	for _, x := range xs {
		switch x.kind {
		case kConst:
			constProd *= x.val
		case kMul:
			for _, a := range x.args {
				if c, ok := a.IsConst(); ok {
					constProd *= c
				} else {
					flat = append(flat, a)
				}
			}
		default:
			flat = append(flat, x)
		}
	}
	if constProd == 0 {
		return Zero
	}
	if constProd != 1 {
		// Keep the constant in front for readability.
		flat = append([]Expr{C(constProd)}, flat...)
	}
	switch len(flat) {
	case 0:
		return One
	case 1:
		return flat[0]
	}
	return Expr{kind: kMul, args: flat}
}

// Neg returns −a.
func Neg(a Expr) Expr { return Mul(C(-1), a) }

// Div returns a / b, represented as a·b⁻¹.
func Div(a, b Expr) Expr {
	if c, ok := b.IsConst(); ok {
		if c == 0 {
			panic("expr: division by constant zero")
		}
		return Mul(a, C(1/c))
	}
	return Mul(a, Pow(b, -1))
}

// Pow returns base^n for integer n, folding trivial cases.
func Pow(base Expr, n int) Expr {
	switch n {
	case 0:
		return One
	case 1:
		return base
	}
	if c, ok := base.IsConst(); ok {
		return C(math.Pow(c, float64(n)))
	}
	if base.kind == kPow {
		return Pow(*base.base, base.expnt*n)
	}
	b := base
	return Expr{kind: kPow, base: &b, expnt: n}
}

// EvalC evaluates e over the complex numbers; used to evaluate transfer
// functions at s = jω without converting to a rational function first.
func (e Expr) EvalC(env map[string]complex128) (complex128, error) {
	switch e.kind {
	case kConst:
		return complex(e.val, 0), nil
	case kVar:
		v, ok := env[e.name]
		if !ok {
			return 0, fmt.Errorf("expr: unbound variable %q", e.name)
		}
		return v, nil
	case kAdd:
		var s complex128
		for _, a := range e.args {
			v, err := a.EvalC(env)
			if err != nil {
				return 0, err
			}
			s += v
		}
		return s, nil
	case kMul:
		p := complex(1, 0)
		for _, a := range e.args {
			v, err := a.EvalC(env)
			if err != nil {
				return 0, err
			}
			p *= v
		}
		return p, nil
	case kPow:
		b, err := e.base.EvalC(env)
		if err != nil {
			return 0, err
		}
		out := complex(1, 0)
		n := e.expnt
		inv := n < 0
		if inv {
			n = -n
		}
		for i := 0; i < n; i++ {
			out *= b
		}
		if inv {
			out = 1 / out
		}
		return out, nil
	}
	panic("expr: unknown kind")
}

// Vars returns the sorted set of variable names appearing in e.
func (e Expr) Vars() []string {
	set := map[string]bool{}
	e.collectVars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (e Expr) collectVars(set map[string]bool) {
	switch e.kind {
	case kVar:
		set[e.name] = true
	case kAdd, kMul:
		for _, a := range e.args {
			a.collectVars(set)
		}
	case kPow:
		e.base.collectVars(set)
	}
}

// String renders the expression with infix notation.
func (e Expr) String() string {
	switch e.kind {
	case kConst:
		return fmt.Sprintf("%.6g", e.val)
	case kVar:
		return e.name
	case kAdd:
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, " + ") + ")"
	case kMul:
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = a.String()
		}
		return strings.Join(parts, "*")
	case kPow:
		return fmt.Sprintf("%s^%d", e.base.String(), e.expnt)
	}
	panic("expr: unknown kind")
}
