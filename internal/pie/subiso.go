package pie

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/seq"
)

// SubIso is the PIE program for graph-pattern matching via subgraph
// isomorphism (Section 5.1). The query is the pattern graph; the assembled
// answer is a []seq.Match with every match of the pattern in G, deduplicated
// across fragments.
//
// It runs in two supersteps, exactly as the paper describes: PEval identifies
// the d_Q-neighbourhoods around border nodes and ships them as designated
// messages (the update parameters are node/edge identifiers whose values
// never change, so no partial order is needed); IncEval is the sequential
// VF2 algorithm run on the fragment extended with the received
// neighbourhoods, and it sends no further messages.
//
// MaxMatches bounds the number of matches each fragment enumerates
// (0 = unlimited), which keeps the NP-complete search bounded in benchmarks.
type SubIso struct {
	MaxMatches int
}

type subIsoState struct {
	// extension accumulates the foreign vertices and edges received from
	// other fragments.
	extension *graph.Builder
	matches   []seq.Match
}

// Name implements core.Program.
func (SubIso) Name() string { return "SubIso" }

// PEval implements core.Program: ship the d_Q-neighbourhood of the border
// nodes to the fragments that share them.
func (s SubIso) PEval(ctx *core.Context) error {
	q, ok := ctx.Query.(*graph.Graph)
	if !ok {
		return fmt.Errorf("pie: SubIso query must be a *graph.Graph pattern, got %T", ctx.Query)
	}
	g := ctx.Fragment.Graph
	st := &subIsoState{extension: graph.NewBuilder(g.Directed())}
	ctx.State = st
	if q.NumVertices() == 0 {
		return nil
	}
	dQ := seq.PatternDiameter(q)
	if dQ < 1 {
		dQ = 1
	}

	// For every fragment j that shares a border vertex with this fragment,
	// collect the owned vertices within d_Q hops of those shared border
	// vertices and ship the induced piece (plus its outgoing cross edges) to
	// j as one designated message.
	shared := make(map[int]map[graph.VertexID]bool)
	var dsts []int
	for _, v := range ctx.Fragment.Border() {
		dsts = ctx.GP.Destinations(dsts[:0], v, ctx.Worker)
		for _, dst := range dsts {
			if shared[dst] == nil {
				shared[dst] = make(map[graph.VertexID]bool)
			}
			shared[dst][v] = true
		}
	}

	dests := make([]int, 0, len(shared))
	for dst := range shared {
		dests = append(dests, dst)
	}
	sort.Ints(dests)
	for _, dst := range dests {
		piece := neighborhoodPiece(ctx.Fragment, shared[dst], dQ)
		if len(piece.vertices) == 0 && len(piece.edges) == 0 {
			continue
		}
		ctx.SendToWorker(dst, encodePiece(piece))
	}

	// A fragment with no border at all (a single-fragment run, or an isolated
	// component) receives no messages and therefore no IncEval superstep, so
	// it evaluates its matches right away.
	if ctx.Fragment.NumBorder() == 0 {
		st.matches = seq.SubgraphIsomorphism(q, g, s.MaxMatches)
	}
	return nil
}

// IncEval implements core.Program: merge the received neighbourhood pieces
// into the fragment and run VF2 on the extended fragment. It sends no
// messages, so the computation terminates after this superstep.
func (s SubIso) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	q, ok := ctx.Query.(*graph.Graph)
	if !ok {
		return fmt.Errorf("pie: SubIso query must be a *graph.Graph pattern, got %T", ctx.Query)
	}
	st, ok := ctx.State.(*subIsoState)
	if !ok {
		return fmt.Errorf("pie: SubIso IncEval called before PEval")
	}
	for _, m := range msgs {
		if m.Vertex != core.RawMessageVertex {
			continue
		}
		piece, err := decodePiece(m.Data)
		if err != nil {
			return fmt.Errorf("pie: SubIso: %w", err)
		}
		for _, v := range piece.vertices {
			st.extension.AddVertex(v.ID, v.Label)
		}
		for _, e := range piece.edges {
			st.extension.AddEdge(e.Src, e.Dst, e.Weight, e.Label)
		}
	}
	extended := mergeFragmentWithExtension(ctx.Fragment.Graph, st.extension)
	st.matches = seq.SubgraphIsomorphism(q, extended, s.MaxMatches)
	return nil
}

// Assemble implements core.Program: union the per-fragment matches and
// deduplicate (several fragments may discover the same match when it lies in
// their shared neighbourhood).
func (SubIso) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	seen := make(map[string]bool)
	var out []seq.Match
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*subIsoState)
		if !ok {
			continue
		}
		for _, m := range st.matches {
			key := matchKey(m)
			if !seen[key] {
				seen[key] = true
				out = append(out, m)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return matchKey(out[i]) < matchKey(out[j]) })
	return out, nil
}

// Aggregate implements core.Program. SubIso's update parameters (node and
// edge identifiers) never change value, so any resolution policy is
// acceptable; keeping the existing value is the identity choice.
func (SubIso) Aggregate(existing, incoming mpi.Update) mpi.Update { return existing }

// matchKey builds a canonical string for a match so duplicates found by
// different fragments collapse.
func matchKey(m seq.Match) string {
	keys := make([]string, 0, len(m))
	for u, v := range m {
		keys = append(keys, fmt.Sprintf("%d->%d", u, v))
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// neighborhoodPiece extracts the owned part of the fragment within d hops of
// the given border vertices: the vertices with their labels and every edge
// whose source is one of those vertices.
type piece struct {
	vertices []graph.Vertex
	edges    []graph.Edge
}

func neighborhoodPiece(frag *partition.Fragment, seeds map[graph.VertexID]bool, d int) piece {
	g := frag.Graph
	// Multi-source BFS over the undirected view of the fragment, restricted
	// to owned vertices, up to depth d.
	depth := make(map[int]int)
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
		if depth[u] == d {
			continue
		}
		expand := func(to int32) {
			if _, ok := depth[int(to)]; !ok && frag.Owns(g.VertexAt(int(to))) {
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

	var p piece
	for i := range depth {
		id := g.VertexAt(i)
		if !frag.Owns(id) {
			continue
		}
		p.vertices = append(p.vertices, graph.Vertex{ID: id, Label: g.Label(i)})
		for _, he := range g.OutEdges(i) {
			p.edges = append(p.edges, graph.Edge{
				Src:    id,
				Dst:    g.VertexAt(int(he.To)),
				Weight: he.Weight,
				Label:  he.Label,
			})
			// Include the endpoint's label so the receiver can materialize it.
			p.vertices = append(p.vertices, graph.Vertex{ID: g.VertexAt(int(he.To)), Label: g.Label(int(he.To))})
		}
	}
	sort.Slice(p.vertices, func(i, j int) bool { return p.vertices[i].ID < p.vertices[j].ID })
	sort.Slice(p.edges, func(i, j int) bool {
		if p.edges[i].Src != p.edges[j].Src {
			return p.edges[i].Src < p.edges[j].Src
		}
		return p.edges[i].Dst < p.edges[j].Dst
	})
	return p
}

// mergeFragmentWithExtension builds the extended graph: the fragment graph
// plus the foreign vertices and edges received from other fragments.
func mergeFragmentWithExtension(local *graph.Graph, ext *graph.Builder) *graph.Graph {
	b := graph.NewBuilder(local.Directed())
	for i := 0; i < local.NumVertices(); i++ {
		b.AddVertex(local.VertexAt(i), local.Label(i))
	}
	for _, e := range local.Edges() {
		b.AddEdge(e.Src, e.Dst, e.Weight, e.Label)
	}
	extGraph := ext.Build()
	for i := 0; i < extGraph.NumVertices(); i++ {
		id := extGraph.VertexAt(i)
		label := extGraph.Label(i)
		if label == "" {
			label = local.LabelOf(id)
		}
		b.AddVertex(id, label)
	}
	for _, e := range extGraph.Edges() {
		if !localHasEdge(local, e) {
			b.AddEdge(e.Src, e.Dst, e.Weight, e.Label)
		}
	}
	return b.Build()
}

func localHasEdge(local *graph.Graph, e graph.Edge) bool {
	return local.HasEdge(e.Src, e.Dst)
}

// encodePiece serializes a neighbourhood piece: vertex count, vertices
// (id, label), edge count, edges (src, dst, weight, label).
func encodePiece(p piece) []byte {
	var buf []byte
	appendUint32 := func(x uint32) {
		var tmp [4]byte
		binary.LittleEndian.PutUint32(tmp[:], x)
		buf = append(buf, tmp[:]...)
	}
	appendUint64 := func(x uint64) {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], x)
		buf = append(buf, tmp[:]...)
	}
	appendString := func(s string) {
		appendUint32(uint32(len(s)))
		buf = append(buf, s...)
	}
	appendUint32(uint32(len(p.vertices)))
	for _, v := range p.vertices {
		appendUint64(uint64(v.ID))
		appendString(v.Label)
	}
	appendUint32(uint32(len(p.edges)))
	for _, e := range p.edges {
		appendUint64(uint64(e.Src))
		appendUint64(uint64(e.Dst))
		appendUint64(math.Float64bits(e.Weight))
		appendString(e.Label)
	}
	return buf
}

// decodePiece parses a piece produced by encodePiece.
func decodePiece(buf []byte) (piece, error) {
	var p piece
	off := 0
	readUint32 := func() (uint32, error) {
		if off+4 > len(buf) {
			return 0, fmt.Errorf("truncated piece")
		}
		v := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		return v, nil
	}
	readUint64 := func() (uint64, error) {
		if off+8 > len(buf) {
			return 0, fmt.Errorf("truncated piece")
		}
		v := binary.LittleEndian.Uint64(buf[off:])
		off += 8
		return v, nil
	}
	readString := func() (string, error) {
		n, err := readUint32()
		if err != nil {
			return "", err
		}
		if off+int(n) > len(buf) {
			return "", fmt.Errorf("truncated piece")
		}
		s := string(buf[off : off+int(n)])
		off += int(n)
		return s, nil
	}
	nv, err := readUint32()
	if err != nil {
		return p, err
	}
	// Bound the claimed count before the append loop grows on its behalf: a
	// vertex costs at least 12 bytes (id + empty-label length), so a hostile
	// count beyond that is rejected without allocating.
	if int(nv) > (len(buf)-off)/12 {
		return p, fmt.Errorf("piece claims %d vertices, input holds %d bytes", nv, len(buf)-off)
	}
	for i := uint32(0); i < nv; i++ {
		id, err := readUint64()
		if err != nil {
			return p, err
		}
		label, err := readString()
		if err != nil {
			return p, err
		}
		p.vertices = append(p.vertices, graph.Vertex{ID: graph.VertexID(id), Label: label})
	}
	ne, err := readUint32()
	if err != nil {
		return p, err
	}
	// Same bound for edges: src + dst + weight + empty-label length is 28
	// bytes minimum per edge.
	if int(ne) > (len(buf)-off)/28 {
		return p, fmt.Errorf("piece claims %d edges, input holds %d bytes", ne, len(buf)-off)
	}
	for i := uint32(0); i < ne; i++ {
		src, err := readUint64()
		if err != nil {
			return p, err
		}
		dst, err := readUint64()
		if err != nil {
			return p, err
		}
		w, err := readUint64()
		if err != nil {
			return p, err
		}
		label, err := readString()
		if err != nil {
			return p, err
		}
		p.edges = append(p.edges, graph.Edge{
			Src:    graph.VertexID(src),
			Dst:    graph.VertexID(dst),
			Weight: math.Float64frombits(w),
			Label:  label,
		})
	}
	return p, nil
}
