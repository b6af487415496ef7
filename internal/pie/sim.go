package pie

import (
	"fmt"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/inc"
	"grape/internal/mpi"
	"grape/internal/seq"
)

// Sim is the PIE program for graph-pattern matching via graph simulation
// (Section 5.1). The query is the pattern graph; the assembled answer is the
// maximum simulation relation Q(G) as a seq.SimResult.
//
// PEval runs the sequential simulation algorithm of Henzinger-Henzinger-Kopke
// on the fragment, with one twist that the paper's candidate set Ci encodes:
// the match status of border copies owned by other fragments is not decided
// locally but read from the Boolean update parameters x_(u,v), which start
// optimistic (true) and can only be flipped to false. IncEval is the
// incremental simulation algorithm under edge deletion: an x_(u,v) flipping
// to false is treated as deleting the cross edges into v, and the affected
// area is re-checked. Aggregation is min over {false < true}, so updates are
// monotonic and the Assurance Theorem applies.
//
// UseIndex enables the neighbourhood-index optimization of Exp-3: candidates
// are pre-filtered with an index built offline per fragment, exactly as the
// optimized sequential algorithm would do.
type Sim struct {
	// UseIndex turns on neighbourhood-index candidate filtering.
	UseIndex bool
}

type simState struct {
	sim seq.SimResult
	idx *seq.SimIndex
}

// Name implements core.Program.
func (s Sim) Name() string {
	if s.UseIndex {
		return "Sim(indexed)"
	}
	return "Sim"
}

// PEval implements core.Program.
func (s Sim) PEval(ctx *core.Context) error {
	q, ok := ctx.Query.(*graph.Graph)
	if !ok {
		return fmt.Errorf("pie: Sim query must be a *graph.Graph pattern, got %T", ctx.Query)
	}
	g := ctx.Fragment.Graph

	// Message preamble: a Boolean variable x_(u,v) per (query node, border
	// node), true iff the labels are compatible (an incompatible pair can
	// never match, so it starts false and is never shipped).
	for s := 0; s < ctx.Fragment.NumBorder(); s++ {
		label := g.Label(ctx.Fragment.BorderIndex(s))
		for uq := 0; uq < q.NumVertices(); uq++ {
			val := 0.0
			if q.Label(uq) == label {
				val = 1.0
			}
			ctx.DeclareAt(s, int64(uq), val, nil)
		}
	}

	st, _ := ctx.State.(*simState)
	if st == nil {
		st = &simState{}
		if s.UseIndex {
			st.idx = seq.BuildSimIndex(g)
		}
		ctx.State = st
	}

	st.sim = s.localSimulation(ctx, q, g, st.idx)
	shipFalsifiedMatches(ctx, q, g, st.sim)
	return nil
}

// localSimulation computes the fragment-local maximum simulation relation.
// Owned vertices are refined as usual; border copies owned by other fragments
// are frozen at their x_(u,v) values, because their outgoing edges live in
// another fragment and only the owner can falsify them.
func (s Sim) localSimulation(ctx *core.Context, q, g *graph.Graph, idx *seq.SimIndex) seq.SimResult {
	nq := q.NumVertices()
	frag := ctx.Fragment
	sim := make([]map[int]bool, nq)
	frozen := make([]bool, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		frozen[i] = !frag.Owns(g.VertexAt(i))
	}

	for uq := 0; uq < nq; uq++ {
		cands := make(map[int]bool)
		for v := 0; v < g.NumVertices(); v++ {
			if frozen[v] {
				// Border copy (every non-owned vertex is in Fi.O): status
				// comes from the update parameter.
				if x, _ := ctx.VarAt(frag.Slot(v), int64(uq)); x > 0 {
					cands[v] = true
				}
				continue
			}
			if g.Label(v) != q.Label(uq) {
				continue
			}
			if idx != nil && !simIndexAdmits(q, uq, g, v, idx) {
				continue
			}
			cands[v] = true
		}
		sim[uq] = cands
	}

	// Refine owned vertices to the local greatest fixpoint.
	changed := true
	for changed {
		changed = false
		for uq := 0; uq < nq; uq++ {
			for v := range sim[uq] {
				if frozen[v] {
					continue
				}
				if !simHasWitnesses(q, uq, g, v, sim) {
					delete(sim[uq], v)
					changed = true
				}
			}
		}
	}

	out := make(seq.SimResult, nq)
	for uq := 0; uq < nq; uq++ {
		set := make(map[graph.VertexID]bool, len(sim[uq]))
		for v := range sim[uq] {
			set[g.VertexAt(v)] = true
		}
		out[q.VertexAt(uq)] = set
	}
	return out
}

func simHasWitnesses(q *graph.Graph, uq int, g *graph.Graph, v int, sim []map[int]bool) bool {
	for _, qe := range q.OutEdges(uq) {
		target := int(qe.To)
		found := false
		for _, he := range g.OutEdges(v) {
			if sim[target][int(he.To)] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func simIndexAdmits(q *graph.Graph, uq int, g *graph.Graph, v int, idx *seq.SimIndex) bool {
	// The index stores, per data vertex, the labels of its out-neighbours;
	// reuse the seq package's admission rule through SimulationWithIndex's
	// helper semantics: every required child label must be reachable.
	for _, qe := range q.OutEdges(uq) {
		if !idx.HasOutLabel(v, q.Label(int(qe.To))) {
			return false
		}
	}
	return true
}

// IncEval implements core.Program: x_(u,v) flipping to false for border
// copies is treated as an edge deletion and propagated through the affected
// area with the incremental simulation algorithm.
func (s Sim) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	q, ok := ctx.Query.(*graph.Graph)
	if !ok {
		return fmt.Errorf("pie: Sim query must be a *graph.Graph pattern, got %T", ctx.Query)
	}
	st, ok := ctx.State.(*simState)
	if !ok {
		return fmt.Errorf("pie: Sim IncEval called before PEval")
	}
	g := ctx.Fragment.Graph

	var removals []inc.SimPair
	for _, m := range msgs {
		if m.Vertex == core.RawMessageVertex || m.Value > 0 {
			continue // only "became false" matters
		}
		removals = append(removals, inc.SimPair{
			Query: q.VertexAt(int(m.Key)),
			Data:  graph.VertexID(m.Vertex),
		})
	}
	if len(removals) > 0 {
		inc.SimDelete(q, g, st.sim, removals)
	}
	shipFalsifiedMatches(ctx, q, g, st.sim)
	return nil
}

// shipFalsifiedMatches records x_(u,v) = false for every border node that is
// not (or no longer) a match of u. Values only go from true to false, so the
// engine ships each falsification at most once.
func shipFalsifiedMatches(ctx *core.Context, q, g *graph.Graph, sim seq.SimResult) {
	frag := ctx.Fragment
	for s, v := range frag.Border() {
		if !frag.Owns(v) {
			continue // only the owner can falsify a vertex's matches
		}
		for uq := 0; uq < q.NumVertices(); uq++ {
			if !sim[q.VertexAt(uq)][v] {
				ctx.SetVarAt(s, int64(uq), 0, nil)
			}
		}
	}
}

// Assemble implements core.Program: the union of the per-fragment relations
// restricted to owned vertices.
func (Sim) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	pattern, ok := q.(*graph.Graph)
	if !ok {
		return nil, fmt.Errorf("pie: Sim query must be a *graph.Graph pattern, got %T", q)
	}
	out := make(seq.SimResult, pattern.NumVertices())
	for uq := 0; uq < pattern.NumVertices(); uq++ {
		out[pattern.VertexAt(uq)] = make(map[graph.VertexID]bool)
	}
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*simState)
		if !ok {
			continue
		}
		for uq := 0; uq < pattern.NumVertices(); uq++ {
			u := pattern.VertexAt(uq)
			for v := range st.sim[u] {
				if ctx.Fragment.Owns(v) {
					out[u][v] = true
				}
			}
		}
	}
	return out, nil
}

// Aggregate implements core.Program: false (0) wins over true (1), the
// monotonic order of Section 5.1.
func (Sim) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return core.MinAggregate(existing, incoming)
}
