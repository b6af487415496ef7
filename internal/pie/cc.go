package pie

import (
	"fmt"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/inc"
	"grape/internal/mpi"
	"grape/internal/seq"
)

// CC is the PIE program for connected components (Section 5.2). The query is
// ignored (CC is a whole-graph computation); the assembled answer is a map
// from every vertex to its component identifier, defined as the smallest
// vertex ID in the component — the same convention as seq.ConnectedComponents
// so the parallel and sequential answers are directly comparable.
//
// PEval runs a sequential DFS labelling on the fragment and declares a cid
// variable per border node. IncEval merges components when a smaller cid
// arrives, touching only the members of the relabelled component (bounded by
// |AFF|). The aggregateMsg policy is min, so cids decrease monotonically and
// the Assurance Theorem applies.
type CC struct{}

// ccState wraps the dense incremental CC labelling: component identifiers in
// a flat slice indexed by the fragment graph's vertex index, relabelled via
// per-component member lists of dense indices (inc.CCDense).
type ccState struct {
	state *inc.CCDense
}

// Name implements core.Program.
func (CC) Name() string { return "CC" }

// PEval implements core.Program.
func (CC) PEval(ctx *core.Context) error {
	g := ctx.Fragment.Graph

	// Message preamble: a cid variable per border node, initialized to the
	// node's own ID (the largest value it can ever take).
	for s, v := range ctx.Fragment.Border() {
		ctx.DeclareAt(s, 0, float64(v), nil)
	}

	st, _ := ctx.State.(*ccState)
	if st == nil {
		st = &ccState{state: inc.NewCCDense(g, seq.ConnectedComponentsDensePar(g, ctx.Pool()))}
		ctx.State = st
	} else {
		st.state.Rebind(g)
	}
	shipBorderCIDs(ctx, st)
	return nil
}

// IncEval implements core.Program: merge components whose border nodes
// received a smaller cid.
func (CC) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	st, ok := ctx.State.(*ccState)
	if !ok {
		return fmt.Errorf("pie: CC IncEval called before PEval")
	}
	st.state.Rebind(ctx.Fragment.Graph)
	updates := make(map[graph.VertexID]graph.VertexID, len(msgs))
	for _, m := range msgs {
		if m.Vertex == core.RawMessageVertex {
			continue
		}
		updates[graph.VertexID(m.Vertex)] = graph.VertexID(int64(m.Value))
	}
	st.state.Merge(updates)
	shipBorderCIDs(ctx, st)
	return nil
}

// EvalDelta implements core.DeltaProgram: edge and vertex insertions only
// ever merge components, which is exactly what the bounded CC merge in
// internal/inc does, so they are absorbed incrementally. Deletions can split
// a component — the cid order has no way to grow identifiers back — so they
// decline and the view is recomputed. Reweights are a no-op for CC.
func (CC) EvalDelta(ctx *core.Context, d core.FragmentDelta) (bool, error) {
	st, ok := ctx.State.(*ccState)
	if !ok {
		return false, fmt.Errorf("pie: CC EvalDelta called before PEval")
	}
	// Rebinding to the post-batch graph registers every inserted vertex as
	// its own singleton component, so cidOf below always finds a label.
	st.state.Rebind(ctx.Fragment.Graph)
	cidOf := func(v graph.VertexID) graph.VertexID {
		if c, ok := st.state.CID(v); ok {
			return c
		}
		// Unknown vertex (not in the rebound graph — cannot happen for batch
		// ops, kept for safety): track it as its own singleton component.
		st.state.Merge(map[graph.VertexID]graph.VertexID{v: v})
		return v
	}
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.UpdateAddVertex:
			cidOf(op.Src)
		case graph.UpdateAddEdge:
			cu, cv := cidOf(op.Src), cidOf(op.Dst)
			switch {
			case cu < cv:
				st.state.Merge(map[graph.VertexID]graph.VertexID{op.Dst: cu})
			case cv < cu:
				st.state.Merge(map[graph.VertexID]graph.VertexID{op.Src: cv})
			}
		case graph.UpdateReweightEdge:
			// CC ignores weights.
		case graph.UpdateRemoveEdge, graph.UpdateRemoveVertex:
			return false, nil // deletions can split components
		}
	}
	shipBorderCIDs(ctx, st)
	// Re-ship the cid of vertices that gained a new mirror fragment.
	for _, v := range d.NewInBorder {
		if cid, ok := st.state.CID(v); ok {
			ctx.SetVar(v, 0, float64(cid), nil)
			ctx.MarkDirty(v, 0)
		}
	}
	return true, nil
}

// shipBorderCIDs records the cid of every border node, reading the dense
// labelling by border slot; the state must be bound to the context's
// fragment graph.
func shipBorderCIDs(ctx *core.Context, st *ccState) {
	frag := ctx.Fragment
	for s := 0; s < frag.NumBorder(); s++ {
		ctx.SetVarAt(s, 0, float64(st.state.Label(frag.BorderIndex(s))), nil)
	}
}

// Assemble implements core.Program: collect the cid of every owned vertex.
func (CC) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	out := make(map[graph.VertexID]graph.VertexID)
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*ccState)
		if !ok {
			continue
		}
		for _, v := range ctx.Fragment.Local {
			if cid, ok := st.state.CID(v); ok {
				out[v] = cid
			}
		}
	}
	return out, nil
}

// Aggregate implements core.Program: component identifiers only decrease.
func (CC) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return core.MinAggregate(existing, incoming)
}

// AsyncSafe implements core.AsyncCapable: component identifiers form a
// min-semilattice, so asynchronous delivery order cannot change the labels
// the fixpoint converges to.
func (CC) AsyncSafe() bool { return true }

// ParallelSafe implements core.ParallelCapable: PEval labels the fragment
// with a pool-chunked union-find (seq.ConnectedComponentsDensePar) that
// assigns exactly the min-external-ID labels the sequential DFS produces.
func (CC) ParallelSafe() bool { return true }
