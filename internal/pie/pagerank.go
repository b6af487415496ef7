package pie

import (
	"fmt"
	"math"
	"sort"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/par"
)

// PageRankQuery configures the PageRank extension program: damping factor,
// convergence tolerance and an upper bound on refinement rounds.
type PageRankQuery struct {
	Damping   float64
	Tolerance float64
	MaxRounds int
}

// DefaultPageRankQuery returns the standard 0.85-damping configuration.
func DefaultPageRankQuery() PageRankQuery {
	return PageRankQuery{Damping: 0.85, Tolerance: 1e-4, MaxRounds: 30}
}

// PageRank is an extension PIE program beyond the paper's five query
// classes; it demonstrates that fixpoint-style analytics fit the same model.
// Each fragment repeatedly runs local power iterations; the ranks of border
// nodes are the update parameters, aggregated by summing contributions is not
// monotonic, so instead the program ships the rank mass flowing over cut
// edges and terminates after a fixed number of rounds (like CF's
// predetermined-supersteps condition).
type PageRank struct{}

// prState keeps the per-fragment rank vector and its sweep scratch buffers
// as flat slices indexed by the fragment graph's dense vertex index, plus a
// precomputed ownership bitmap, so the power-iteration inner loop runs with
// no map or partition lookups at all. over holds decoded partial entries for
// vertices absent from the bound graph (kept only so re-encoding stays
// total).
type prState struct {
	g      *graph.Graph
	rank   []float64 // current rank by dense vertex index
	next   []float64 // sweep scratch, swapped with rank
	out    []float64 // out-flowing mass toward non-owned copies, by index
	owned  []bool    // whether the fragment owns the vertex at each index
	over   map[graph.VertexID]float64
	incast map[graph.VertexID]map[int64]float64 // border vertex -> sender -> latest mass
	rounds int

	// Pull-direction CSR for the parallel sweep, built lazily on first use:
	// for each destination j, pullSrc[pullOff[j]:pullOff[j+1]] lists the
	// contributing sources (owned, out-degree > 0) in exactly the order the
	// sequential scatter adds their shares — ascending source index, parallel
	// edges in out-CSR order — so the per-destination pull fold reproduces the
	// scatter's floating-point sums bit for bit. The graph's own in-adjacency
	// cannot serve here: it is laid out in builder insertion order, not
	// ascending source order. shares is the per-source scratch the sweep reads.
	pullOff []int32
	pullSrc []int32
	shares  []float64
}

// buildPull constructs the pull CSR by counting sort over the scatter's own
// iteration order, so per-destination source lists come out source-ascending.
func (st *prState) buildPull() {
	if st.pullOff != nil {
		return
	}
	g := st.g
	n := g.NumVertices()
	counts := make([]int32, n+1)
	for i := 0; i < n; i++ {
		if !st.owned[i] || g.OutDegree(i) == 0 {
			continue
		}
		for _, he := range g.OutEdges(i) {
			counts[he.To+1]++
		}
	}
	for j := 0; j < n; j++ {
		counts[j+1] += counts[j]
	}
	st.pullOff = counts
	st.pullSrc = make([]int32, counts[n])
	fill := make([]int32, n)
	copy(fill, counts[:n])
	for i := 0; i < n; i++ {
		if !st.owned[i] || g.OutDegree(i) == 0 {
			continue
		}
		for _, he := range g.OutEdges(i) {
			st.pullSrc[fill[he.To]] = int32(i)
			fill[he.To]++
		}
	}
	st.shares = make([]float64, n)
}

// newPRState builds a fresh dense state bound to the fragment: all ranks at
// the given initial value, ownership resolved once up front.
func newPRState(ctx *core.Context, initial float64) *prState {
	g := ctx.Fragment.Graph
	n := g.NumVertices()
	st := &prState{
		g:      g,
		rank:   make([]float64, n),
		next:   make([]float64, n),
		out:    make([]float64, n),
		owned:  make([]bool, n),
		incast: make(map[graph.VertexID]map[int64]float64),
	}
	for i := 0; i < n; i++ {
		st.rank[i] = initial
		st.owned[i] = ctx.Fragment.Owns(g.VertexAt(i))
	}
	return st
}

// Name implements core.Program.
func (PageRank) Name() string { return "PageRank" }

// PEval implements core.Program.
func (PageRank) PEval(ctx *core.Context) error {
	q, ok := ctx.Query.(PageRankQuery)
	if !ok {
		return fmt.Errorf("pie: PageRank query must be a PageRankQuery, got %T", ctx.Query)
	}
	st := newPRState(ctx, 1.0)
	ctx.State = st
	for s := 0; s < ctx.Fragment.NumBorder(); s++ {
		ctx.DeclareAt(s, 0, 0, nil)
	}
	PageRank{}.iterate(ctx, q, st)
	return nil
}

// IncEval implements core.Program.
func (PageRank) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	q, ok := ctx.Query.(PageRankQuery)
	if !ok {
		return fmt.Errorf("pie: PageRank query must be a PageRankQuery, got %T", ctx.Query)
	}
	st, ok := ctx.State.(*prState)
	if !ok {
		return fmt.Errorf("pie: PageRank IncEval called before PEval")
	}
	for _, m := range msgs {
		if m.Vertex == core.RawMessageVertex {
			continue
		}
		v := graph.VertexID(m.Vertex)
		if st.incast[v] == nil {
			st.incast[v] = make(map[int64]float64)
		}
		st.incast[v][m.Key] = m.Value
	}
	if st.rounds >= q.MaxRounds {
		return nil
	}
	PageRank{}.iterate(ctx, q, st)
	return nil
}

// iterate runs power-iteration sweeps to local convergence — the PIE way: a
// full sequential algorithm over the fragment given the currently known
// cross-fragment mass, not a single step of it. Sweeping to the local
// fixpoint is what makes the final answer schedule-independent: at global
// quiescence every fragment is converged with respect to the final incast,
// which pins the unique fixpoint of the coupled rank equations regardless
// of how (BSP lockstep, async batches) the exchanges were paced. The mass
// flowing toward out-border copies is then shipped; SetVar's change
// detection stops the exchange once the masses stabilize.
func (PageRank) iterate(ctx *core.Context, q PageRankQuery, st *prState) {
	g := st.g
	n := g.NumVertices()
	p := ctx.Pool()
	st.rounds++
	// Flatten the incast into (dense index, per-sender masses) entries sorted
	// by (vertex, sender). The map's iteration order is random, and float
	// addition is not associative, so folding in sorted order is what makes
	// both the sequential and the parallel plane deterministic — and therefore
	// byte-identical to each other.
	type inEntry struct {
		idx    int
		masses []float64
	}
	var entries []inEntry
	if len(st.incast) > 0 {
		verts := make([]graph.VertexID, 0, len(st.incast))
		for v := range st.incast {
			verts = append(verts, v)
		}
		sort.Slice(verts, func(a, b int) bool { return verts[a] < verts[b] })
		for _, v := range verts {
			i := g.IndexOf(v)
			if i < 0 || !st.owned[i] {
				continue
			}
			bySender := st.incast[v]
			senders := make([]int64, 0, len(bySender))
			for s := range bySender {
				senders = append(senders, s)
			}
			sort.Slice(senders, func(a, b int) bool { return senders[a] < senders[b] })
			masses := make([]float64, len(senders))
			for k, s := range senders {
				masses[k] = bySender[s]
			}
			entries = append(entries, inEntry{idx: i, masses: masses})
		}
	}
	parallel := p.Width() > 1
	if parallel {
		st.buildPull()
	}
	// Cap the local solve defensively; the tolerance is the real stopper.
	const maxLocalSweeps = 100000
	for sweep := 0; sweep < maxLocalSweeps; sweep++ {
		next, out := st.next, st.out
		if parallel {
			sweepParallel(g, q, st, p, next, out)
		} else {
			for i := 0; i < n; i++ {
				next[i] = 1 - q.Damping
				out[i] = 0
			}
			for i := 0; i < n; i++ {
				if !st.owned[i] {
					continue
				}
				deg := g.OutDegree(i)
				if deg == 0 {
					continue
				}
				share := q.Damping * st.rank[i] / float64(deg)
				for _, he := range g.OutEdges(i) {
					next[he.To] += share
					if !st.owned[he.To] {
						out[he.To] += share
					}
				}
			}
		}
		// Fold in the mass received from other fragments for owned border
		// nodes (summing the latest contribution of every sender).
		for _, e := range entries {
			for _, mass := range e.masses {
				next[e.idx] += mass
			}
		}
		delta := 0.0
		for i := 0; i < n; i++ {
			delta += math.Abs(next[i] - st.rank[i])
		}
		st.rank, st.next = next, st.rank
		if delta < q.Tolerance {
			break
		}
	}
	// Ship the converged outgoing mass, one variable per (border vertex,
	// sending fragment) so contributions from different fragments do not
	// overwrite each other at the receiver. Unchanged masses are deduplicated
	// by SetVar, which is what eventually quiesces the exchange. Mass only
	// flows toward non-owned copies, which are exactly Fi.O, so every
	// non-zero entry has a border slot.
	frag := ctx.Fragment
	for i := 0; i < n; i++ {
		if mass := st.out[i]; mass != 0 {
			ctx.SetVarAt(frag.Slot(i), int64(ctx.Worker), mass, nil)
		}
	}
}

// sweepParallel is one rank sweep chunked over the pool: a shares pass
// precomputes every owned source's outgoing share, then a pull pass computes
// each destination independently from the pull CSR. Per destination it adds
// the same shares in the same order the sequential scatter does — starting
// from 1-d for next, and from 0 in a separate fold for out — so next and out
// come out bit-identical to the scatter's, at any pool width.
func sweepParallel(g *graph.Graph, q PageRankQuery, st *prState, p *par.Pool, next, out []float64) {
	n := g.NumVertices()
	shares := st.shares
	p.Sweep(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if st.owned[i] {
				if deg := g.OutDegree(i); deg > 0 {
					shares[i] = q.Damping * st.rank[i] / float64(deg)
					continue
				}
			}
			shares[i] = 0
		}
	})
	p.Sweep(n, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			acc := 1 - q.Damping
			for k := st.pullOff[j]; k < st.pullOff[j+1]; k++ {
				acc += shares[st.pullSrc[k]]
			}
			next[j] = acc
			if st.owned[j] {
				out[j] = 0
				continue
			}
			o := 0.0
			for k := st.pullOff[j]; k < st.pullOff[j+1]; k++ {
				o += shares[st.pullSrc[k]]
			}
			out[j] = o
		}
	})
}

// rankOf returns the rank of v by external ID (0 when unknown).
func (st *prState) rankOf(v graph.VertexID) float64 {
	if i := st.g.IndexOf(v); i >= 0 {
		return st.rank[i]
	}
	return st.over[v]
}

// Assemble implements core.Program: collect the rank of owned vertices and
// normalize so ranks sum to |V|.
func (PageRank) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	out := make(map[graph.VertexID]float64)
	for _, ctx := range ctxs {
		st, ok := ctx.State.(*prState)
		if !ok {
			continue
		}
		for _, v := range ctx.Fragment.Local {
			out[v] = st.rankOf(v)
		}
	}
	// Normalize so ranks sum to |V|, folding in sorted vertex order: map
	// iteration order is random and float addition is not associative, so an
	// unordered fold would make even two identical runs disagree in the last
	// bits of every rank.
	ids := make([]graph.VertexID, 0, len(out))
	for v := range out {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	total := 0.0
	for _, v := range ids {
		total += out[v]
	}
	if total > 0 {
		scale := float64(len(out)) / total
		for _, v := range ids {
			out[v] *= scale
		}
	}
	return out, nil
}

// Aggregate implements core.Program: the value is replaced by the most recent
// contribution (PageRank mass is recomputed from scratch every round, so the
// newest value wins; rounds are monotonically increasing).
func (PageRank) Aggregate(existing, incoming mpi.Update) mpi.Update { return incoming }

// AsyncSafe implements core.AsyncCapable: the incast keyed by sending
// fragment makes re-delivery overwrite rather than double-count, so the
// asynchronous schedule converges to the same fixpoint of the rank equations
// the BSP schedule approximates. The answers agree up to the convergence
// tolerance (not bit-for-bit — termination is tolerance-based), which is the
// contract PageRank callers already accept between runs at different worker
// counts.
func (PageRank) AsyncSafe() bool { return true }

// ParallelSafe implements core.ParallelCapable: the pool-chunked rank sweep
// pulls each destination's shares in the sequential scatter's exact addition
// order (see sweepParallel), so parallel runs produce bit-identical ranks to
// the sequential reference path — a stronger guarantee than AsyncSafe's
// tolerance-level agreement.
func (PageRank) ParallelSafe() bool { return true }
