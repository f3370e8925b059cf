package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Program is a compiled expression: a flattened postfix instruction list
// with variables resolved to slice indices, so evaluation is a tight
// stack-machine loop with no string hashing and no tree recursion. Mason
// transfer functions are evaluated at hundreds of frequency points per
// synthesis candidate, and the compiled form is several times faster than
// walking the Expr tree.
//
// Compile also runs an optimization pass over the expression DAG:
// structurally identical subexpressions are interned and computed once
// (their value parked in a register and re-loaded at later uses), and
// constant subtrees are folded at compile time using the exact operation
// order of the runtime loop, so the optimized program is bit-identical
// to the naive one.
type Program struct {
	code     []instr
	vars     []string
	maxStack int
	nreg     int
}

type opcode uint8

const (
	opConst opcode = iota
	opVar
	opAdd   // pops n, pushes sum
	opMul   // pops n, pushes product
	opPow   // pops 1, pushes power
	opStore // copies top of stack into register (no pop)
	opLoad  // pushes register
)

type instr struct {
	op  opcode
	n   int32 // operand count (opAdd/opMul) or exponent (opPow)
	idx int32 // variable slot (opVar) or register (opLoad/opStore)
	val complex128
}

// dagNode is one interned subexpression during compilation. Structurally
// identical subtrees share a node; uses counts the parent references.
type dagNode struct {
	e    Expr
	kids []*dagNode // kAdd/kMul operands, or the kPow base

	uses    int
	reg     int32 // register once stored, -1 otherwise
	emitted bool

	isConst  bool
	constVal complex128
}

// compiler interns subexpressions by structural signature.
type compiler struct {
	index map[string]int
	nodes map[string]*dagNode
	sigs  map[*dagNode]string
}

// intern returns the shared DAG node for e, folding constant subtrees.
// Folding replicates the evaluation loop's accumulation order exactly
// (sequential complex adds/multiplies, repeated multiplication for
// powers) so optimized programs return bit-identical values.
func (c *compiler) intern(e Expr) (*dagNode, error) {
	var sig string
	var kids []*dagNode
	switch e.kind {
	case kConst:
		sig = "c" + strconv.FormatUint(math.Float64bits(e.val), 16)
	case kVar:
		if _, ok := c.index[e.name]; !ok {
			return nil, fmt.Errorf("expr: compile: unknown variable %q", e.name)
		}
		sig = "v" + e.name
	case kAdd, kMul:
		kids = make([]*dagNode, len(e.args))
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			k, err := c.intern(a)
			if err != nil {
				return nil, err
			}
			kids[i] = k
			parts[i] = c.sigs[k]
		}
		tag := "a("
		if e.kind == kMul {
			tag = "m("
		}
		sig = tag + strings.Join(parts, ",") + ")"
	case kPow:
		k, err := c.intern(*e.base)
		if err != nil {
			return nil, err
		}
		kids = []*dagNode{k}
		sig = "p" + strconv.Itoa(e.expnt) + "(" + c.sigs[k] + ")"
	default:
		panic("expr: unknown kind")
	}
	if n, ok := c.nodes[sig]; ok {
		n.uses++
		return n, nil
	}
	n := &dagNode{e: e, kids: kids, uses: 1, reg: -1}
	c.fold(n)
	c.nodes[sig] = n
	c.sigs[n] = sig
	return n, nil
}

// fold marks n constant (and precomputes its value) when possible.
func (c *compiler) fold(n *dagNode) {
	switch n.e.kind {
	case kConst:
		n.isConst, n.constVal = true, complex(n.e.val, 0)
		return
	case kVar:
		return
	}
	for _, k := range n.kids {
		if !k.isConst {
			return
		}
	}
	switch n.e.kind {
	case kAdd:
		var s complex128
		for _, k := range n.kids {
			s += k.constVal
		}
		n.isConst, n.constVal = true, s
	case kMul:
		pr := complex(1, 0)
		for _, k := range n.kids {
			pr *= k.constVal
		}
		n.isConst, n.constVal = true, pr
	case kPow:
		b := n.kids[0].constVal
		out := complex(1, 0)
		k := n.e.expnt
		inv := k < 0
		if inv {
			k = -k
		}
		for j := 0; j < k; j++ {
			out *= b
		}
		if inv {
			out = 1 / out
		}
		n.isConst, n.constVal = true, out
	}
}

// Compile resolves every variable in e against its own sorted variable
// set and returns the program plus the variable order expected by EvalC.
func (e Expr) Compile() (*Program, []string, error) {
	vars := e.Vars()
	index := make(map[string]int, len(vars))
	for i, v := range vars {
		index[v] = i
	}
	c := &compiler{
		index: index,
		nodes: map[string]*dagNode{},
		sigs:  map[*dagNode]string{},
	}
	root, err := c.intern(e)
	if err != nil {
		return nil, nil, err
	}
	p := &Program{vars: vars}
	p.emit(root, index, 0)
	return p, vars, nil
}

// emit appends postfix code for the DAG node n; cur is the stack depth
// before the node's own result is pushed. It returns the depth after the
// push. A constant-folded or already-stored node becomes a single push;
// a composite node used more than once additionally parks its value in a
// fresh register the first time it is computed.
func (p *Program) emit(n *dagNode, index map[string]int, cur int) int {
	grow := func(d int) {
		if d > p.maxStack {
			p.maxStack = d
		}
	}
	if n.isConst {
		p.code = append(p.code, instr{op: opConst, val: n.constVal})
		grow(cur + 1)
		return cur + 1
	}
	if n.emitted && n.reg >= 0 {
		p.code = append(p.code, instr{op: opLoad, idx: n.reg})
		grow(cur + 1)
		return cur + 1
	}
	switch n.e.kind {
	case kVar:
		p.code = append(p.code, instr{op: opVar, idx: int32(index[n.e.name])})
		grow(cur + 1)
		// Variable pushes are as cheap as register loads; no CSE needed.
		return cur + 1
	case kAdd, kMul:
		d := cur
		for _, k := range n.kids {
			d = p.emit(k, index, d)
		}
		op := opAdd
		if n.e.kind == kMul {
			op = opMul
		}
		p.code = append(p.code, instr{op: op, n: int32(len(n.kids))})
	case kPow:
		p.emit(n.kids[0], index, cur)
		p.code = append(p.code, instr{op: opPow, n: int32(n.e.expnt)})
	default:
		panic("expr: unknown kind")
	}
	n.emitted = true
	if n.uses > 1 {
		n.reg = int32(p.nreg)
		p.nreg++
		p.code = append(p.code, instr{op: opStore, idx: n.reg})
	}
	return cur + 1
}

// VarIndex returns the slot of a variable, or -1.
func (p *Program) VarIndex(name string) int {
	i := sort.SearchStrings(p.vars, name)
	if i < len(p.vars) && p.vars[i] == name {
		return i
	}
	return -1
}

// EvalBuf is the scratch state for EvalCInto. The zero value is ready to
// use; the first evaluation sizes it, after which evaluations of the
// same (or any smaller) program allocate nothing. A buffer must not be
// shared between concurrent evaluations.
type EvalBuf struct {
	stack []complex128
	regs  []complex128
}

// EvalC evaluates the program; vals must be index-aligned with Vars().
// It is safe for concurrent use (the evaluation scratch is local). Hot
// loops should hold an EvalBuf and call EvalCInto instead.
func (p *Program) EvalC(vals []complex128) (complex128, error) {
	var buf EvalBuf
	return p.EvalCInto(&buf, vals)
}

// EvalCInto evaluates the program using buf as scratch space, growing it
// only when the program needs more than any earlier evaluation did.
func (p *Program) EvalCInto(buf *EvalBuf, vals []complex128) (complex128, error) {
	if len(vals) != len(p.vars) {
		return 0, fmt.Errorf("expr: program needs %d values, got %d", len(p.vars), len(vals))
	}
	if cap(buf.stack) < p.maxStack {
		buf.stack = make([]complex128, 0, p.maxStack)
	}
	if cap(buf.regs) < p.nreg {
		buf.regs = make([]complex128, p.nreg)
	}
	stack := buf.stack[:0]
	regs := buf.regs[:cap(buf.regs)]
	for i := range p.code {
		in := &p.code[i]
		switch in.op {
		case opConst:
			stack = append(stack, in.val)
		case opVar:
			stack = append(stack, vals[in.idx])
		case opAdd:
			n := int(in.n)
			var s complex128
			for _, v := range stack[len(stack)-n:] {
				s += v
			}
			stack = stack[:len(stack)-n]
			stack = append(stack, s)
		case opMul:
			n := int(in.n)
			pr := complex(1, 0)
			for _, v := range stack[len(stack)-n:] {
				pr *= v
			}
			stack = stack[:len(stack)-n]
			stack = append(stack, pr)
		case opPow:
			b := stack[len(stack)-1]
			out := complex(1, 0)
			k := int(in.n)
			inv := k < 0
			if inv {
				k = -k
			}
			for j := 0; j < k; j++ {
				out *= b
			}
			if inv {
				out = 1 / out
			}
			stack[len(stack)-1] = out
		case opStore:
			regs[in.idx] = stack[len(stack)-1]
		case opLoad:
			stack = append(stack, regs[in.idx])
		}
	}
	buf.stack = stack[:0]
	if len(stack) != 1 {
		return 0, fmt.Errorf("expr: corrupt program (stack depth %d)", len(stack))
	}
	return stack[0], nil
}
