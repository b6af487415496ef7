// Package partition implements the graph partition strategies of GRAPE
// (Section 2 and Section 6 "Graph partition"): it splits a graph G into m
// fragments F = (F1, ..., Fm), computes the border sets Fi.I and Fi.O, and
// builds the fragmentation graph GP used to route messages between workers.
//
// Several strategies are provided, mirroring the paper's Partition Manager:
//
//   - Hash: hash edge-cut (the simplest, used as the default in tests).
//   - Range: contiguous ranges of vertex IDs (useful for road networks where
//     nearby IDs are spatially close).
//   - LDG: streaming linear deterministic greedy partitioning, the
//     "fast streaming-style partition strategy" of [43].
//   - Multilevel: a METIS-like locality-preserving partitioner based on
//     BFS region growing with balance constraints.
//   - VertexCut: a vertex-cut strategy that assigns edges and derives vertex
//     ownership, producing small vertex cut-sets on skewed graphs.
//
// All strategies return a vertex → fragment assignment; Build turns an
// assignment into fragments plus the fragmentation graph.
package partition

import (
	"fmt"
	"sort"

	"grape/internal/graph"
)

// Strategy assigns each vertex (by dense index) of g to one of m fragments.
// Implementations must be deterministic for a given input.
type Strategy interface {
	// Name returns the strategy name used in reports.
	Name() string
	// Assign returns a slice of length g.NumVertices() with values in [0, m).
	Assign(g *graph.Graph, m int) []int
}

// Fragment is one fragment Fi of a partitioned graph: the subgraph induced by
// the vertices assigned to worker i, extended with the cross edges to
// out-border vertices so that sequential algorithms can run on it unchanged.
type Fragment struct {
	// ID is the fragment (worker) index in [0, m).
	ID int
	// Graph is the local fragment graph. It contains all vertices owned by
	// this fragment plus copies of the out-border vertices, and every edge of
	// G whose source is owned by this fragment (plus, for undirected graphs,
	// edges whose destination is owned).
	Graph *graph.Graph
	// Local lists the external IDs of the vertices owned by the fragment
	// (Vi), in ascending order.
	Local []graph.VertexID
	// InBorder is Fi.I: owned vertices that have an incoming edge from
	// another fragment.
	InBorder []graph.VertexID
	// OutBorder is Fi.O: vertices owned by other fragments that local
	// vertices have edges to (the copies present in Graph).
	OutBorder []graph.VertexID

	local map[graph.VertexID]bool

	// Border slots: Fi.I ∪ Fi.O numbered once, in ascending vertex-ID order.
	// border[s] is the vertex in slot s, borderIdx[s] its dense index in
	// Graph, and slotOf maps a dense index back to its slot (-1 for interior
	// vertices). They are set by numberBorders whenever the border sets are.
	border    []graph.VertexID
	borderIdx []int32
	slotOf    []int32
}

// Owns reports whether the fragment owns vertex v.
func (f *Fragment) Owns(v graph.VertexID) bool { return f.local[v] }

// NumLocal returns |Vi|.
func (f *Fragment) NumLocal() int { return len(f.Local) }

// NumBorder returns |Fi.I ∪ Fi.O|, the number of border slots.
func (f *Fragment) NumBorder() int { return len(f.border) }

// Border returns the border vertices Fi.I ∪ Fi.O in slot order, which is
// ascending vertex-ID order. The returned slice must not be modified.
func (f *Fragment) Border() []graph.VertexID { return f.border }

// BorderIndex returns the dense index in Graph of the vertex in border slot s.
func (f *Fragment) BorderIndex(s int) int { return int(f.borderIdx[s]) }

// Slot returns the border slot of the vertex at dense index i of Graph, or -1
// when that vertex is interior to the fragment.
func (f *Fragment) Slot(i int) int { return int(f.slotOf[i]) }

// SlotOf returns the border slot of vertex v, or -1 when v is interior to
// the fragment or not in it at all.
func (f *Fragment) SlotOf(v graph.VertexID) int {
	if i := f.Graph.IndexOf(v); i >= 0 {
		return int(f.slotOf[i])
	}
	return -1
}

// numberBorders assigns the border slots: it merges the two sorted, disjoint
// border lists and indexes them against Graph. Every border vertex is
// present in Graph (owned vertices always are, and Fi.O is exactly the set
// of copies), so every slot has a dense index.
func (f *Fragment) numberBorders() {
	in, out := f.InBorder, f.OutBorder
	f.border = make([]graph.VertexID, 0, len(in)+len(out))
	for len(in) > 0 || len(out) > 0 {
		if len(out) == 0 || (len(in) > 0 && in[0] < out[0]) {
			f.border, in = append(f.border, in[0]), in[1:]
		} else {
			f.border, out = append(f.border, out[0]), out[1:]
		}
	}
	f.slotOf = make([]int32, f.Graph.NumVertices())
	for i := range f.slotOf {
		f.slotOf[i] = -1
	}
	f.borderIdx = make([]int32, len(f.border))
	for s, v := range f.border {
		i := f.Graph.IndexOf(v)
		f.borderIdx[s] = int32(i)
		f.slotOf[i] = int32(s)
	}
}

// FragGraph is the fragmentation graph GP: an index that, for every border
// vertex, records which fragment owns it and which fragments hold copies of
// it (i.e. have it in their Fi.O). GRAPE uses it to deduce the destinations
// of designated messages (Section 3.2).
type FragGraph struct {
	owner   map[graph.VertexID]int
	mirrors map[graph.VertexID][]int
	m       int
}

// NumFragments returns the number of fragments m.
func (gp *FragGraph) NumFragments() int { return gp.m }

// Owner returns the fragment that owns vertex v, or -1 if v is unknown.
func (gp *FragGraph) Owner(v graph.VertexID) int {
	if o, ok := gp.owner[v]; ok {
		return o
	}
	return -1
}

// Mirrors returns the fragments that hold v in their out-border Fi.O. The
// returned slice must not be modified.
func (gp *FragGraph) Mirrors(v graph.VertexID) []int { return gp.mirrors[v] }

// IsBorder reports whether v is a border vertex of the partition, i.e.
// whether at least one fragment other than its owner holds a copy of it.
func (gp *FragGraph) IsBorder(v graph.VertexID) bool { return len(gp.mirrors[v]) > 0 }

// Destinations appends to dst, in ascending order, every fragment that must
// be informed when the value of border vertex v changes at fragment from:
// the owner of v and every mirror, excluding from itself. Nothing is
// appended for a non-border vertex whose owner is from. It allocates only
// when dst lacks capacity, so routing loops can reuse one buffer.
func (gp *FragGraph) Destinations(dst []int, v graph.VertexID, from int) []int {
	o := gp.Owner(v)
	if o == from {
		o = -1
	}
	// The mirrors are sorted; merging the owner into them keeps the order
	// (and drops it should it also be listed as a mirror).
	for _, mi := range gp.mirrors[v] {
		if o >= 0 && o <= mi {
			if o < mi {
				dst = append(dst, o)
			}
			o = -1
		}
		if mi != from {
			dst = append(dst, mi)
		}
	}
	if o >= 0 {
		dst = append(dst, o)
	}
	return dst
}

// BorderVertices returns all border vertices in ascending order.
func (gp *FragGraph) BorderVertices() []graph.VertexID {
	out := make([]graph.VertexID, 0, len(gp.mirrors))
	for v := range gp.mirrors {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Partitioned is the result of partitioning a graph: the fragments, the
// fragmentation graph, and the raw assignment.
type Partitioned struct {
	// Source is the original graph.
	Source *graph.Graph
	// Fragments holds the m fragments.
	Fragments []*Fragment
	// GP is the fragmentation graph.
	GP *FragGraph
	// Assignment maps dense vertex index of Source to fragment ID.
	Assignment []int
	// Strategy is the name of the strategy that produced the assignment.
	Strategy string
}

// CutEdges returns the number of edges of the source graph whose endpoints
// live in different fragments — the edge-cut size used to compare strategies.
func (p *Partitioned) CutEdges() int {
	cut := 0
	g := p.Source
	for i := 0; i < g.NumVertices(); i++ {
		for _, he := range g.OutEdges(i) {
			if !g.Directed() && int(he.To) < i {
				continue
			}
			if p.Assignment[i] != p.Assignment[he.To] {
				cut++
			}
		}
	}
	return cut
}

// Balance returns the ratio between the largest fragment size and the ideal
// size |V|/m. 1.0 is perfectly balanced.
func (p *Partitioned) Balance() float64 {
	if p.Source.NumVertices() == 0 || len(p.Fragments) == 0 {
		return 1
	}
	max := 0
	for _, f := range p.Fragments {
		if f.NumLocal() > max {
			max = f.NumLocal()
		}
	}
	ideal := float64(p.Source.NumVertices()) / float64(len(p.Fragments))
	if ideal == 0 {
		return 1
	}
	return float64(max) / ideal
}

// Partition splits g into m fragments using the given strategy and builds the
// fragmentation graph. It panics if m <= 0.
func Partition(g *graph.Graph, m int, s Strategy) *Partitioned {
	if m <= 0 {
		panic(fmt.Sprintf("partition: invalid fragment count %d", m))
	}
	assign := s.Assign(g, m)
	if len(assign) != g.NumVertices() {
		panic(fmt.Sprintf("partition: strategy %s returned %d assignments for %d vertices",
			s.Name(), len(assign), g.NumVertices()))
	}
	return Build(g, assign, m, s.Name())
}

// Build constructs fragments and the fragmentation graph from an explicit
// vertex assignment. Assignment values outside [0, m) are clamped into range
// by modular reduction.
func Build(g *graph.Graph, assign []int, m int, strategyName string) *Partitioned {
	n := g.NumVertices()
	norm := make([]int, n)
	for i, a := range assign {
		if a < 0 {
			a = -a
		}
		norm[i] = a % m
	}

	builders := make([]*graph.Builder, m)
	locals := make([]map[graph.VertexID]bool, m)
	inBorder := make([]map[graph.VertexID]bool, m)
	outBorder := make([]map[graph.VertexID]bool, m)
	for i := 0; i < m; i++ {
		builders[i] = graph.NewBuilder(g.Directed())
		locals[i] = make(map[graph.VertexID]bool)
		inBorder[i] = make(map[graph.VertexID]bool)
		outBorder[i] = make(map[graph.VertexID]bool)
	}

	// Add owned vertices first so labels are present.
	for i := 0; i < n; i++ {
		f := norm[i]
		builders[f].AddVertex(g.VertexAt(i), g.Label(i))
		locals[f][g.VertexAt(i)] = true
	}

	// Distribute edges. An edge (u,v) goes to the fragment owning u; if v is
	// remote, v becomes an out-border copy there and an in-border vertex at
	// its owner. For undirected graphs the symmetric edge is handled when the
	// adjacency of v is scanned, because OutEdges covers both directions.
	for i := 0; i < n; i++ {
		fu := norm[i]
		u := g.VertexAt(i)
		for _, he := range g.OutEdges(i) {
			j := int(he.To)
			fv := norm[j]
			v := g.VertexAt(j)
			if !g.Directed() && j < i && fv == fu {
				// Local undirected edge already added when scanning v; cross
				// undirected edges are added once per endpoint fragment.
				continue
			}
			builders[fu].AddVertex(v, g.Label(j))
			builders[fu].AddEdge(u, v, he.Weight, he.Label)
			if fv != fu {
				outBorder[fu][v] = true
				inBorder[fv][v] = true
			}
		}
	}

	gp := &FragGraph{
		owner:   make(map[graph.VertexID]int, n),
		mirrors: make(map[graph.VertexID][]int),
		m:       m,
	}
	for i := 0; i < n; i++ {
		gp.owner[g.VertexAt(i)] = norm[i]
	}

	p := &Partitioned{
		Source:     g,
		Fragments:  make([]*Fragment, m),
		GP:         gp,
		Assignment: norm,
		Strategy:   strategyName,
	}
	for f := 0; f < m; f++ {
		frag := &Fragment{
			ID:    f,
			Graph: builders[f].Build(),
			local: locals[f],
		}
		frag.Local = sortedIDs(locals[f])
		frag.InBorder = sortedIDs(inBorder[f])
		frag.OutBorder = sortedIDs(outBorder[f])
		frag.numberBorders()
		for _, v := range frag.OutBorder {
			gp.mirrors[v] = append(gp.mirrors[v], f)
		}
		p.Fragments[f] = frag
	}
	for v := range gp.mirrors {
		sort.Ints(gp.mirrors[v])
	}
	return p
}

func sortedIDs(set map[graph.VertexID]bool) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
