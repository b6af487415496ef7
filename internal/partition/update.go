package partition

import (
	"sort"

	"grape/internal/graph"
)

// Incremental partition maintenance. ApplyUpdates routes a batch of graph
// update ops to the owning fragments, rebuilds only the fragments whose
// local subgraph actually changed, and repairs the border sets Fi.I / Fi.O
// and the fragmentation graph GP — the bookkeeping that lets the engine keep
// deducing message destinations after the graph has mutated. The input
// Partitioned is never modified: the result shares every untouched Fragment
// with its predecessor, giving the session copy-on-write epochs (queries in
// flight keep reading the fragments of the epoch they started on).

// FragmentChange describes what one update batch did to one fragment. The
// engine hands it (wrapped in a core.FragmentDelta) to programs that
// maintain materialized views incrementally.
type FragmentChange struct {
	// Frag is the fragment index.
	Frag int
	// Ops lists the update ops applied to this fragment's local graph, in
	// batch order. Nil when only the fragment's border metadata changed.
	Ops []graph.Update
	// OldGraph is the fragment graph before the batch (equal to the new one
	// when Ops is nil).
	OldGraph *graph.Graph
	// NewInBorder lists owned vertices that gained at least one new mirror
	// in this batch (in particular, vertices that just joined Fi.I). The new
	// mirrors have never seen these vertices' values, so view maintenance
	// must re-ship them even though the values did not change.
	NewInBorder []graph.VertexID
}

// UpdateResult reports the per-fragment effects of one ApplyUpdates batch.
type UpdateResult struct {
	// Changes maps fragment index to its change record; fragments absent
	// from the map were untouched by the batch.
	Changes map[int]*FragmentChange
	// Applied counts the ops that had an effect (no-op removals of missing
	// vertices/edges are not counted).
	Applied int
}

// AffectedFragments returns the indices of changed fragments in ascending
// order.
func (r *UpdateResult) AffectedFragments() []int {
	out := make([]int, 0, len(r.Changes))
	for f := range r.Changes {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// HashPlacer assigns new vertices to fragments by hashing their external ID,
// consistent with the Hash partition strategy. It is the default placement
// for vertices created by update streams.
func HashPlacer(m int) func(graph.VertexID) int {
	return func(v graph.VertexID) int { return hashVertex(v, m) }
}

func hashVertex(v graph.VertexID, m int) int {
	return int(fnvVertex(uint64(v)) % uint32(m))
}

// routedOp is one op destined for one fragment's rebuild.
type routedOp struct {
	frag int
	op   graph.Update
}

// ApplyUpdates applies a batch of graph updates to the partition and returns
// the resulting Partitioned plus a per-fragment change report. p itself is
// unchanged; the result shares the Fragment values of untouched fragments.
//
// Routing follows the ownership rules of Build: an edge lives at the
// fragment owning its source (both endpoint fragments for undirected
// graphs); removing a vertex touches its owner and every fragment mirroring
// it. New vertices (explicit, or implicit edge endpoints) are placed with
// place — pass HashPlacer(m) unless the caller has a better policy. Removing
// a vertex or edge that does not exist is a no-op.
//
// The result's Source and Assignment still describe the graph as it was when
// the partition was first built (epoch 0); GP and the fragments are the live
// authority for ownership and adjacency after updates.
func (p *Partitioned) ApplyUpdates(batch []graph.Update, place func(graph.VertexID) int) (*Partitioned, *UpdateResult) {
	m := len(p.Fragments)
	if place == nil {
		place = HashPlacer(m)
	}
	directed := p.Source.Directed()

	// Copy ownership: it mutates as the batch is routed.
	owner := make(map[graph.VertexID]int, len(p.GP.owner))
	for v, o := range p.GP.owner {
		owner[v] = o
	}
	mirrors := make(map[graph.VertexID][]int, len(p.GP.mirrors))
	for v, ms := range p.GP.mirrors {
		mirrors[v] = append([]int(nil), ms...)
	}

	res := &UpdateResult{Changes: make(map[int]*FragmentChange)}
	var routed []routedOp
	route := func(f int, op graph.Update) {
		routed = append(routed, routedOp{frag: f, op: op})
	}
	// pendingLabels tracks labels of vertices added or relabeled earlier in
	// this batch, before any fragment has been rebuilt.
	pendingLabels := make(map[graph.VertexID]string)
	// labelOf resolves a vertex's current label: batch-local first, then the
	// owner fragment's graph of the previous epoch.
	labelOf := func(v graph.VertexID) string {
		if l, ok := pendingLabels[v]; ok {
			return l
		}
		if o, ok := owner[v]; ok {
			return p.Fragments[o].Graph.LabelOf(v)
		}
		return ""
	}
	// ensureVertex returns the owner of v, placing (and materializing) it if
	// the vertex is new. Returns the owner fragment.
	ensureVertex := func(v graph.VertexID, label string) int {
		if o, ok := owner[v]; ok {
			return o
		}
		o := place(v)
		owner[v] = o
		pendingLabels[v] = label
		route(o, graph.AddVertexUpdate(v, label))
		return o
	}
	// materializeCopy makes sure fragment f holds v's label when it is about
	// to receive a copy of a remotely owned vertex through a new edge.
	materializeCopy := func(f int, v graph.VertexID) {
		if owner[v] == f {
			return
		}
		if l := labelOf(v); l != "" {
			route(f, graph.AddVertexUpdate(v, l))
		}
	}

	for _, op := range batch {
		switch op.Kind {
		case graph.UpdateAddVertex:
			if o, ok := owner[op.Src]; ok {
				// Adding an existing vertex is a label refresh; one that
				// changes nothing must not force fragment rebuilds.
				if op.Label == "" || op.Label == labelOf(op.Src) {
					continue
				}
				// The owner and every mirror hold the label.
				route(o, op)
				for _, f := range mirrors[op.Src] {
					route(f, op)
				}
			} else {
				o := place(op.Src)
				owner[op.Src] = o
				route(o, op)
			}
			if op.Label != "" {
				pendingLabels[op.Src] = op.Label
			}
			res.Applied++
		case graph.UpdateRemoveVertex:
			o, ok := owner[op.Src]
			if !ok {
				continue
			}
			route(o, op)
			for _, f := range mirrors[op.Src] {
				if f != o {
					route(f, op)
				}
			}
			delete(owner, op.Src)
			res.Applied++
		case graph.UpdateAddEdge:
			fu := ensureVertex(op.Src, "")
			fv := ensureVertex(op.Dst, "")
			materializeCopy(fu, op.Dst)
			route(fu, op)
			if !directed && fv != fu {
				materializeCopy(fv, op.Src)
				route(fv, op)
			}
			res.Applied++
		case graph.UpdateRemoveEdge, graph.UpdateReweightEdge:
			fu, uok := owner[op.Src]
			fv, vok := owner[op.Dst]
			if !uok || !vok {
				continue
			}
			route(fu, op)
			if !directed && fv != fu {
				route(fv, op)
			}
			res.Applied++
		}
	}

	// Group routed ops per fragment, preserving batch order.
	perFrag := make(map[int][]graph.Update)
	for _, r := range routed {
		perFrag[r.frag] = append(perFrag[r.frag], r.op)
	}

	// Rebuild the touched fragments and collect mirror-set changes.
	newFrags := make([]*Fragment, m)
	copy(newFrags, p.Fragments)
	mirrorChangedOwners := make(map[int]bool)
	newlyMirrored := make(map[int]map[graph.VertexID]bool) // owner -> vertices with new mirrors
	for f, ops := range perFrag {
		old := p.Fragments[f]
		local := make(map[graph.VertexID]bool, len(old.local))
		for v := range old.local {
			local[v] = true
		}
		d := graph.NewDeltaBuilder(old.Graph)
		for _, op := range ops {
			switch op.Kind {
			case graph.UpdateAddVertex:
				if owner[op.Src] == f {
					local[op.Src] = true
				}
			case graph.UpdateRemoveVertex:
				delete(local, op.Src)
			}
			d.Apply(op)
		}
		// Owned vertices always stay, even when isolated; border copies
		// orphaned by deletions are dropped so Fi.O stays tight.
		d.PruneIsolated(func(v graph.VertexID) bool { return local[v] })
		ng := d.Build()

		frag := &Fragment{ID: f, Graph: ng, local: local}
		frag.Local = sortedIDs(local)
		outSet := make(map[graph.VertexID]bool)
		for i := 0; i < ng.NumVertices(); i++ {
			if v := ng.VertexAt(i); !local[v] {
				outSet[v] = true
			}
		}
		frag.OutBorder = sortedIDs(outSet)
		newFrags[f] = frag
		res.Changes[f] = &FragmentChange{Frag: f, Ops: ops, OldGraph: old.Graph}

		// Diff the fragment's out-border to repair mirror sets.
		oldOut := make(map[graph.VertexID]bool, len(old.OutBorder))
		for _, v := range old.OutBorder {
			oldOut[v] = true
		}
		for v := range outSet {
			if !oldOut[v] {
				mirrors[v] = insertSorted(mirrors[v], f)
				if o, ok := owner[v]; ok {
					mirrorChangedOwners[o] = true
					if newlyMirrored[o] == nil {
						newlyMirrored[o] = make(map[graph.VertexID]bool)
					}
					newlyMirrored[o][v] = true
				}
			}
		}
		for v := range oldOut {
			if !outSet[v] {
				mirrors[v] = removeInt(mirrors[v], f)
				if len(mirrors[v]) == 0 {
					delete(mirrors, v)
				}
				if o, ok := owner[v]; ok {
					mirrorChangedOwners[o] = true
				}
			}
		}
	}
	// Mirror entries for vertices that no longer exist anywhere.
	for v := range mirrors {
		if _, ok := owner[v]; !ok {
			delete(mirrors, v)
		}
	}

	// Refresh Fi.I wherever it may have changed: every rebuilt fragment,
	// plus owners whose vertices gained or lost mirrors.
	refresh := make(map[int]bool, len(perFrag)+len(mirrorChangedOwners))
	for f := range perFrag {
		refresh[f] = true
	}
	for f := range mirrorChangedOwners {
		refresh[f] = true
	}
	for f := range refresh {
		frag := newFrags[f]
		inSet := make(map[graph.VertexID]bool)
		for v := range frag.local {
			if len(mirrors[v]) > 0 {
				inSet[v] = true
			}
		}
		newIn := sortedIDs(inSet)
		reship := sortedIDs(newlyMirrored[f])
		if frag == p.Fragments[f] {
			if len(reship) == 0 && equalIDs(newIn, frag.InBorder) {
				continue // nothing actually changed for this fragment
			}
			// Border-only change: clone the fragment, sharing its graph.
			clone := *frag
			clone.InBorder = newIn
			clone.numberBorders()
			newFrags[f] = &clone
		} else {
			frag.InBorder = newIn
			frag.numberBorders()
		}
		ch := res.Changes[f]
		if ch == nil {
			ch = &FragmentChange{Frag: f, OldGraph: p.Fragments[f].Graph}
			res.Changes[f] = ch
		}
		ch.NewInBorder = reship
	}

	gp := &FragGraph{owner: owner, mirrors: mirrors, m: m}
	return &Partitioned{
		Source:     p.Source,
		Fragments:  newFrags,
		GP:         gp,
		Assignment: p.Assignment,
		Strategy:   p.Strategy,
	}, res
}

func equalIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func insertSorted(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i < len(s) && s[i] == x {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	return s
}

func removeInt(s []int, x int) []int {
	i := sort.SearchInts(s, x)
	if i >= len(s) || s[i] != x {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
