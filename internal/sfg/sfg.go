// Package sfg implements signal-flow graphs and Mason's gain rule, the
// symbolic-analysis step of the paper's block-level synthesis flow (§3):
// once a circuit is rendered as a DPI/SFG graph, the transfer function
// between any source node and any output node follows from
//
//	H = Σₖ Pₖ·Δₖ / Δ
//
// where Pₖ are forward-path gains, Δ = 1 − ΣLᵢ + ΣLᵢLⱼ − … over products of
// non-touching loop gains, and Δₖ is Δ restricted to loops not touching
// path k. Edge gains are symbolic expressions (package expr), so the
// resulting transfer function stays symbolic until small-signal values are
// bound.
package sfg

import (
	"fmt"
	"sort"
	"strings"

	"pipesyn/internal/expr"
)

// Graph is a directed signal-flow graph with symbolic branch gains.
// Parallel edges accumulate by addition, as SFG semantics require.
type Graph struct {
	names []string
	index map[string]int
	// adj[from][to] = summed branch gain.
	adj map[int]map[int]expr.Expr
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: map[string]int{}, adj: map[int]map[int]expr.Expr{}}
}

// AddNode ensures a node exists and returns its index.
func (g *Graph) AddNode(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	i := len(g.names)
	g.names = append(g.names, name)
	g.index[name] = i
	return i
}

// AddEdge adds a branch from→to with the given gain; repeated calls on the
// same pair sum gains. Self-loops are allowed (they are ordinary loops in
// Mason's formula).
func (g *Graph) AddEdge(from, to string, gain expr.Expr) {
	if gain.IsZero() {
		return
	}
	f, t := g.AddNode(from), g.AddNode(to)
	m := g.adj[f]
	if m == nil {
		m = map[int]expr.Expr{}
		g.adj[f] = m
	}
	if old, ok := m[t]; ok {
		m[t] = expr.Add(old, gain)
	} else {
		m[t] = gain
	}
}

// Loop is a simple cycle with its symbolic gain and member-node set.
type Loop struct {
	Nodes []int // in cycle order, first node is the smallest index
	Gain  expr.Expr
	set   map[int]bool
}

// Path is a simple input→output path with its gain and member-node set.
type Path struct {
	Nodes []int
	Gain  expr.Expr
	set   map[int]bool
}

// Loops enumerates every simple cycle in the graph. The implementation is
// a DFS restricted to cycles whose smallest node index is the start node,
// which enumerates each cycle exactly once (the core idea of Johnson's
// algorithm; the graphs here are small enough to skip its blocking lists).
func (g *Graph) Loops() []Loop {
	n := len(g.names)
	var loops []Loop
	stack := []int{}
	onStack := make([]bool, n)
	var start int
	var dfs func(v int)
	dfs = func(v int) {
		stack = append(stack, v)
		onStack[v] = true
		// Deterministic order for reproducible output.
		targets := sortedKeys(g.adj[v])
		for _, w := range targets {
			if w == start {
				loops = append(loops, g.makeLoop(stack))
			} else if w > start && !onStack[w] {
				dfs(w)
			}
		}
		stack = stack[:len(stack)-1]
		onStack[v] = false
	}
	for start = 0; start < n; start++ {
		dfs(start)
	}
	return loops
}

func (g *Graph) makeLoop(stack []int) Loop {
	nodes := append([]int(nil), stack...)
	gain := expr.One
	set := map[int]bool{}
	for i, v := range nodes {
		w := nodes[(i+1)%len(nodes)]
		gain = expr.Mul(gain, g.adj[v][w])
		set[v] = true
	}
	return Loop{Nodes: nodes, Gain: gain, set: set}
}

// ForwardPaths enumerates every simple path from→to.
func (g *Graph) ForwardPaths(from, to string) ([]Path, error) {
	f, ok := g.index[from]
	if !ok {
		return nil, fmt.Errorf("sfg: unknown node %q", from)
	}
	t, ok := g.index[to]
	if !ok {
		return nil, fmt.Errorf("sfg: unknown node %q", to)
	}
	var paths []Path
	visited := make([]bool, len(g.names))
	stack := []int{}
	var dfs func(v int)
	dfs = func(v int) {
		stack = append(stack, v)
		visited[v] = true
		if v == t {
			paths = append(paths, g.makePath(stack))
		} else {
			for _, w := range sortedKeys(g.adj[v]) {
				if !visited[w] {
					dfs(w)
				}
			}
		}
		stack = stack[:len(stack)-1]
		visited[v] = false
	}
	dfs(f)
	return paths, nil
}

func (g *Graph) makePath(stack []int) Path {
	nodes := append([]int(nil), stack...)
	gain := expr.One
	set := map[int]bool{}
	for i := 0; i+1 < len(nodes); i++ {
		gain = expr.Mul(gain, g.adj[nodes[i]][nodes[i+1]])
	}
	for _, v := range nodes {
		set[v] = true
	}
	return Path{Nodes: nodes, Gain: gain, set: set}
}

// touches reports whether two node sets intersect.
func touches(a, b map[int]bool) bool {
	if len(a) > len(b) {
		a, b = b, a
	}
	for v := range a {
		if b[v] {
			return true
		}
	}
	return false
}

// determinant computes Δ over the subset of loops whose index passes keep:
// Δ = 1 − Σ Lᵢ + Σ LᵢLⱼ − … with products only over mutually non-touching
// loops. A recursive inclusion of loops with sign alternation handles any
// order of non-touching sets.
func determinant(loops []Loop, keep func(i int) bool) expr.Expr {
	var active []Loop
	for i, l := range loops {
		if keep(i) {
			active = append(active, l)
		}
	}
	delta := expr.One
	// chooseFrom accumulates: for each combination of mutually non-touching
	// loops {i1<i2<…}, add (−1)^k · product of gains.
	var recurse func(startIdx int, sign float64, gainSoFar expr.Expr, used []map[int]bool)
	recurse = func(startIdx int, sign float64, gainSoFar expr.Expr, used []map[int]bool) {
		for i := startIdx; i < len(active); i++ {
			l := active[i]
			conflict := false
			for _, u := range used {
				if touches(u, l.set) {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			g := expr.Mul(gainSoFar, l.Gain)
			delta = expr.Add(delta, expr.Mul(expr.C(sign), g))
			recurse(i+1, -sign, g, append(used, l.set))
		}
	}
	recurse(0, -1, expr.One, nil)
	return delta
}

// TransferFunction applies Mason's gain rule between the given nodes. The
// source node must be a pure source in SFG terms (the caller typically
// injects via a dedicated input node). It returns the symbolic H = out/in.
func (g *Graph) TransferFunction(from, to string) (expr.Expr, error) {
	paths, err := g.ForwardPaths(from, to)
	if err != nil {
		return expr.Zero, err
	}
	loops := g.Loops()
	delta := determinant(loops, func(int) bool { return true })
	num := expr.Zero
	for _, p := range paths {
		dk := determinant(loops, func(i int) bool { return !touches(loops[i].set, p.set) })
		num = expr.Add(num, expr.Mul(p.Gain, dk))
	}
	return expr.Div(num, delta), nil
}

// DescribeLoops renders loops with node names, for reports and debugging.
func (g *Graph) DescribeLoops() []string {
	loops := g.Loops()
	out := make([]string, len(loops))
	for i, l := range loops {
		names := make([]string, len(l.Nodes))
		for j, v := range l.Nodes {
			names[j] = g.names[v]
		}
		out[i] = fmt.Sprintf("L%d: %s [gain %s]", i+1, strings.Join(names, "→"), l.Gain)
	}
	return out
}

func sortedKeys(m map[int]expr.Expr) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
