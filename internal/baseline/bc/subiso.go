package bc

import (
	"fmt"
	"sort"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/seq"
)

// SubIso is the block-centric subgraph-isomorphism program: like GRAPE's
// program it exchanges the d_Q-neighbourhoods of border vertices and runs the
// sequential VF2 search on the extended block, but it ships the
// neighbourhoods as individual per-vertex and per-edge messages instead of
// one grouped designated message, which is the communication overhead the
// paper measures against Blogel (Figure 8i-j).
type SubIso struct {
	Pattern    *graph.Graph
	MaxMatches int
}

type subIsoBlockState struct {
	vertices map[graph.VertexID]string
	edges    map[[2]graph.VertexID]float64
	matches  []seq.Match
}

// Name implements Program.
func (SubIso) Name() string { return "SubIso" }

// InitBlock implements Program.
func (p SubIso) InitBlock(ctx *BlockContext) {
	st := &subIsoBlockState{
		vertices: make(map[graph.VertexID]string),
		edges:    make(map[[2]graph.VertexID]float64),
	}
	ctx.State = st
	q := p.Pattern
	if q.NumVertices() == 0 {
		st.matches = []seq.Match{}
		return
	}
	dQ := seq.PatternDiameter(q)
	if dQ < 1 {
		dQ = 1
	}
	g := ctx.Block.Graph

	// Collect the owned vertices within dQ hops of any border vertex.
	seeds := map[graph.VertexID]bool{}
	for _, v := range ctx.Block.InBorder {
		seeds[v] = true
	}
	for _, v := range ctx.Block.OutBorder {
		seeds[v] = true
	}
	depth := map[int]int{}
	var queue []int
	for v := range seeds {
		if i := g.IndexOf(v); i >= 0 {
			depth[i] = 0
			queue = append(queue, i)
		}
	}
	sort.Ints(queue)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if depth[u] == dQ {
			continue
		}
		expand := func(to int32) {
			if _, ok := depth[int(to)]; !ok && ctx.Block.Owns(g.VertexAt(int(to))) {
				depth[int(to)] = depth[u] + 1
				queue = append(queue, int(to))
			}
		}
		for _, he := range g.OutEdges(u) {
			expand(he.To)
		}
		for _, he := range g.InEdges(u) {
			expand(he.To)
		}
	}

	// Ship the neighbourhood piece-by-piece: one vertex message per vertex
	// and per edge, to every block sharing a border vertex with this block.
	targets := map[int]bool{}
	var dsts []int
	for v := range seeds {
		dsts = ctx.GP.Destinations(dsts[:0], v, ctx.Block.ID)
		for _, dst := range dsts {
			targets[dst] = true
		}
	}
	for i := range depth {
		id := g.VertexAt(i)
		if !ctx.Block.Owns(id) {
			continue
		}
		for dst := range targets {
			ctx.SendToBlock(dst, VertexMessage{To: id, Value: 0, Data: []byte("v:" + g.Label(i))})
		}
		for _, he := range g.OutEdges(i) {
			other := g.VertexAt(int(he.To))
			for dst := range targets {
				ctx.SendToBlock(dst, VertexMessage{To: id, Value: he.Weight,
					Data: append([]byte("e:"), mpi.Float64sToBytes([]float64{float64(other)})...)})
			}
		}
	}

	// Blocks with no borders can evaluate immediately.
	if len(seeds) == 0 {
		p.search(ctx, st)
	}
}

// BCompute implements Program: merge received pieces and run the search.
func (p SubIso) BCompute(ctx *BlockContext, msgs []VertexMessage) {
	st := ctx.State.(*subIsoBlockState)
	for _, m := range msgs {
		if len(m.Data) < 2 {
			continue
		}
		switch m.Data[0] {
		case 'v':
			st.vertices[m.To] = string(m.Data[2:])
		case 'e':
			vals := mpi.BytesToFloat64s(m.Data[2:])
			if len(vals) == 1 {
				st.edges[[2]graph.VertexID{m.To, graph.VertexID(int64(vals[0]))}] = m.Value
			}
		}
	}
	p.search(ctx, st)
}

func (p SubIso) search(ctx *BlockContext, st *subIsoBlockState) {
	g := ctx.Block.Graph
	b := graph.NewBuilder(true)
	for i := 0; i < g.NumVertices(); i++ {
		b.AddVertex(g.VertexAt(i), g.Label(i))
	}
	for _, e := range g.Edges() {
		b.AddEdge(e.Src, e.Dst, e.Weight, e.Label)
	}
	for v, label := range st.vertices {
		b.AddVertex(v, label)
	}
	for e, w := range st.edges {
		if !g.HasEdge(e[0], e[1]) {
			b.AddEdge(e[0], e[1], w, "")
		}
	}
	st.matches = seq.SubgraphIsomorphism(p.Pattern, b.Build(), p.MaxMatches)
}

// Output implements Program.
func (SubIso) Output(ctx *BlockContext) any {
	st, ok := ctx.State.(*subIsoBlockState)
	if !ok {
		return []seq.Match{}
	}
	return st.matches
}

// MergeMatches combines and deduplicates per-block matches.
func MergeMatches(res *Result) []seq.Match {
	seen := map[string]bool{}
	var out []seq.Match
	for _, o := range res.Outputs {
		for _, m := range o.([]seq.Match) {
			keys := make([]graph.VertexID, 0, len(m))
			for u := range m {
				keys = append(keys, u)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			key := ""
			for _, u := range keys {
				key += fmt.Sprintf("%d:%d;", u, m[u])
			}
			if !seen[key] {
				seen[key] = true
				out = append(out, m)
			}
		}
	}
	return out
}
