package pie

import (
	"fmt"
	"sort"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/seq"
)

// SSSP is the PIE program for single-source shortest paths (Figures 3 and 4
// of the paper). The query is the source vertex (graph.VertexID); the
// assembled answer is a map from every vertex of G to its shortest distance
// from the source (+Inf when unreachable).
//
// PEval is Dijkstra's algorithm run on the local fragment; the only additions
// are the message preamble (a dist(s,v) variable per border node, initially
// ∞) and the message segment (ship decreased border distances, aggregated
// with min). IncEval is the bounded incremental shortest-path algorithm of
// Ramalingam–Reps, seeded with the border distances that decreased.
type SSSP struct{}

// ssspState is the partial result Q(Fi): the current distance of every
// vertex present in the fragment graph, as a flat slice indexed by the
// graph's dense vertex index so the relaxation inner loops never touch a
// map. External IDs appear only at the borders (shipping variables) and in
// Assemble. over keeps the finite distances of vertices that left the
// fragment graph across a rebind, purely so the partial result stays total.
type ssspState struct {
	g    *graph.Graph
	dist []float64
	over map[graph.VertexID]float64
}

// rebind points the state at (a possibly new epoch of) the fragment graph,
// remapping distances by external ID. Rebinding the already-bound graph is
// free, which makes it safe to call at the top of every eval.
func (st *ssspState) rebind(g *graph.Graph) {
	if st.g == g {
		return
	}
	nd := make([]float64, g.NumVertices())
	for i := range nd {
		nd[i] = seq.Infinity
	}
	for v, dv := range st.over {
		if i := g.IndexOf(v); i >= 0 {
			if dv < nd[i] {
				nd[i] = dv
			}
			delete(st.over, v)
		}
	}
	if st.g != nil {
		for i, dv := range st.dist {
			if dv >= seq.Infinity {
				continue
			}
			v := st.g.VertexAt(i)
			if j := g.IndexOf(v); j >= 0 {
				if dv < nd[j] {
					nd[j] = dv
				}
			} else {
				st.setOver(v, dv)
			}
		}
	}
	st.g, st.dist = g, nd
}

func (st *ssspState) setOver(v graph.VertexID, dv float64) {
	if st.over == nil {
		st.over = make(map[graph.VertexID]float64)
	}
	if old, ok := st.over[v]; !ok || dv < old {
		st.over[v] = dv
	}
}

// get returns the current distance of v by external ID (+Inf when unknown).
func (st *ssspState) get(v graph.VertexID) float64 {
	if i := st.g.IndexOf(v); i >= 0 {
		return st.dist[i]
	}
	if dv, ok := st.over[v]; ok {
		return dv
	}
	return seq.Infinity
}

// Name implements core.Program.
func (SSSP) Name() string { return "SSSP" }

// PEval implements core.Program.
func (SSSP) PEval(ctx *core.Context) error {
	source, ok := ctx.Query.(graph.VertexID)
	if !ok {
		return fmt.Errorf("pie: SSSP query must be a graph.VertexID, got %T", ctx.Query)
	}
	frag := ctx.Fragment
	g := frag.Graph

	// Message preamble: declare dist(s,v) = ∞ for every border node.
	for s := 0; s < frag.NumBorder(); s++ {
		ctx.DeclareAt(s, 0, seq.Infinity, nil)
	}

	st, _ := ctx.State.(*ssspState)
	if st == nil {
		st = &ssspState{}
		ctx.State = st
	}
	st.rebind(g)

	// Seeds: the source (distance 0) plus any border values already known
	// (these exist only when PEval is re-run in the GRAPE_NI ablation).
	var seeds []seq.Seed
	if i := g.IndexOf(source); i >= 0 {
		seeds = append(seeds, seq.Seed{Index: i, Dist: 0})
	}
	for s := 0; s < frag.NumBorder(); s++ {
		if d, ok := ctx.VarAt(s, 0); ok && d < seq.Infinity {
			seeds = append(seeds, seq.Seed{Index: frag.BorderIndex(s), Dist: d})
		}
	}
	seq.RelaxDense(g, st.dist, seeds, ctx.Pool())

	// Message segment: ship the computed distances of border nodes.
	shipBorderDistances(ctx, st)
	return nil
}

// IncEval implements core.Program. msgs carry decreased distances for border
// nodes; the incremental algorithm propagates them through the affected area
// only.
func (SSSP) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	st, ok := ctx.State.(*ssspState)
	if !ok {
		return fmt.Errorf("pie: SSSP IncEval called before PEval")
	}
	g := ctx.Fragment.Graph
	st.rebind(g)
	seeds := make([]seq.Seed, 0, len(msgs))
	for _, m := range msgs {
		if m.Vertex == core.RawMessageVertex {
			continue
		}
		if i := g.IndexOf(graph.VertexID(m.Vertex)); i >= 0 {
			seeds = append(seeds, seq.Seed{Index: i, Dist: m.Value})
		} else if m.Value < seq.Infinity {
			// A decrease for a vertex the graph no longer holds: record it,
			// nothing to propagate (mirrors inc.SSSPDecrease).
			st.setOver(graph.VertexID(m.Vertex), m.Value)
		}
	}
	seq.RelaxDense(g, st.dist, seeds, ctx.Pool())
	shipBorderDistances(ctx, st)
	return nil
}

// EvalDelta implements core.DeltaProgram: it absorbs monotone graph changes
// — edge inserts, weight decreases, vertex adds — by seeding the bounded
// incremental algorithm with the distance relaxations the new edges enable.
// Edge deletions and weight increases can raise distances, which the
// min-monotone message discipline cannot retract, so they decline and the
// view falls back to a full PEval re-run (exactly the split of Section 3.4:
// IncEval handles the update classes its incremental algorithm is bounded
// for).
func (SSSP) EvalDelta(ctx *core.Context, d core.FragmentDelta) (bool, error) {
	source, ok := ctx.Query.(graph.VertexID)
	if !ok {
		return false, fmt.Errorf("pie: SSSP query must be a graph.VertexID, got %T", ctx.Query)
	}
	st, ok := ctx.State.(*ssspState)
	if !ok {
		return false, fmt.Errorf("pie: SSSP EvalDelta called before PEval")
	}
	// The context already carries the post-batch graph; rebinding gives every
	// freshly inserted vertex an ∞ slot, which replaces the explicit
	// registration the map-backed state needed.
	g := ctx.Fragment.Graph
	st.rebind(g)
	seedIdx := make(map[int]float64)
	seed := func(v graph.VertexID, dv float64) {
		if dv >= st.get(v) {
			return
		}
		if i := g.IndexOf(v); i >= 0 {
			if old, ok := seedIdx[i]; !ok || dv < old {
				seedIdx[i] = dv
			}
		}
	}
	relax := func(u, v graph.VertexID, w float64) {
		if du := st.get(u); du < seq.Infinity {
			seed(v, du+w)
		}
		if !g.Directed() {
			if dv := st.get(v); dv < seq.Infinity {
				seed(u, dv+w)
			}
		}
	}
	// Edges inserted earlier in this same batch: a reweight targeting one of
	// them cannot be resolved against OldGraph (relaxations with the old
	// weight already happened), so it declines to a full recompute.
	batchAdded := make(map[[2]graph.VertexID]bool)
	edgeKey := func(u, v graph.VertexID) [2]graph.VertexID {
		if !g.Directed() && v < u {
			u, v = v, u
		}
		return [2]graph.VertexID{u, v}
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.UpdateAddVertex:
			if op.Src == source {
				seed(op.Src, 0)
			}
		case graph.UpdateAddEdge:
			if op.Src == source {
				seed(op.Src, 0)
			}
			if op.Dst == source {
				seed(op.Dst, 0)
			}
			batchAdded[edgeKey(op.Src, op.Dst)] = true
			relax(op.Src, op.Dst, op.Weight)
		case graph.UpdateReweightEdge:
			if batchAdded[edgeKey(op.Src, op.Dst)] {
				return false, nil // reweight of a same-batch insert: old weight unknown
			}
			// Compare against the smallest parallel edge: reweight sets all
			// of them, so raising any currently-minimal weight is an increase.
			oldW, existed := minEdgeWeight(d.OldGraph, op.Src, op.Dst)
			if !existed {
				continue // reweight of a missing edge: no-op
			}
			if op.Weight > oldW {
				return false, nil // increase: distances may grow
			}
			relax(op.Src, op.Dst, op.Weight)
		case graph.UpdateRemoveEdge, graph.UpdateRemoveVertex:
			return false, nil // deletions can only raise distances
		}
	}
	seeds := make([]seq.Seed, 0, len(seedIdx))
	for i, dv := range seedIdx {
		seeds = append(seeds, seq.Seed{Index: i, Dist: dv})
	}
	// Seed in index order so heap tie-breaking (and therefore any float
	// relaxation order) is identical across runs.
	sort.Slice(seeds, func(a, b int) bool { return seeds[a].Index < seeds[b].Index })
	seq.DijkstraFromDense(g, st.dist, seeds)
	shipBorderDistances(ctx, st)
	// Vertices that gained a new mirror must be re-shipped even when their
	// distance did not change: the new mirror has never seen it.
	for _, v := range d.NewInBorder {
		if dv := st.get(v); dv < seq.Infinity {
			ctx.SetVar(v, 0, dv, nil)
			ctx.MarkDirty(v, 0)
		}
	}
	return true, nil
}

// minEdgeWeight returns the smallest weight among the (possibly parallel)
// edges from u to v and whether any exists.
func minEdgeWeight(g *graph.Graph, u, v graph.VertexID) (float64, bool) {
	ui, vi := g.IndexOf(u), g.IndexOf(v)
	if ui < 0 || vi < 0 {
		return 0, false
	}
	w, found := 0.0, false
	for _, he := range g.OutEdges(ui) {
		if int(he.To) == vi && (!found || he.Weight < w) {
			w, found = he.Weight, true
		}
	}
	return w, found
}

// shipBorderDistances records the current distance of every border node in
// the update parameters, reading the dense distances by border slot; the
// engine ships only the ones that changed. st must be bound to the context's
// fragment graph.
func shipBorderDistances(ctx *core.Context, st *ssspState) {
	frag := ctx.Fragment
	for s := 0; s < frag.NumBorder(); s++ {
		if d := st.dist[frag.BorderIndex(s)]; d < seq.Infinity {
			ctx.SetVarAt(s, 0, d, nil)
		}
	}
}

// Assemble implements core.Program: Q(G) is the union of the per-fragment
// distances of owned vertices.
func (SSSP) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	out := make(map[graph.VertexID]float64)
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*ssspState)
		if !ok {
			continue
		}
		for _, v := range ctx.Fragment.Local {
			out[v] = st.get(v)
		}
	}
	return out, nil
}

// Aggregate implements core.Program: dist values only decrease, resolved with
// min — the monotonic condition of the Assurance Theorem.
func (SSSP) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return core.MinAggregate(existing, incoming)
}

// AsyncSafe implements core.AsyncCapable: distances form a min-semilattice,
// so applying stale, re-ordered or re-delivered decreases in any order
// converges to the same shortest distances the BSP schedule produces.
func (SSSP) AsyncSafe() bool { return true }

// ParallelSafe implements core.ParallelCapable: PEval and IncEval relax over
// the pool's chunked frontier sweeps (seq.RelaxDense), converging to the same
// least-fixpoint distances — bit for bit — as the sequential Dijkstra path.
func (SSSP) ParallelSafe() bool { return true }
