package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"grape/internal/graph"
	"grape/internal/graphgen"
)

// rebuildFromScratch builds the ground-truth partition of the fully updated
// graph using the incremental partition's ownership, so the two can be
// compared fragment by fragment.
func rebuildFromScratch(g *graph.Graph, gp *FragGraph, m int) *Partitioned {
	assign := make([]int, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		assign[i] = gp.Owner(g.VertexAt(i))
	}
	return Build(g, assign, m, "scratch")
}

func edgeMultiset(g *graph.Graph) map[graph.Edge]int {
	set := make(map[graph.Edge]int)
	for _, e := range g.Edges() {
		if !g.Directed() && e.Dst < e.Src {
			e.Src, e.Dst = e.Dst, e.Src
		}
		set[e]++
	}
	return set
}

func requireSameIDs(t *testing.T, what string, got, want []graph.VertexID) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v want %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v want %v", what, got, want)
		}
	}
}

func requireEquivalent(t *testing.T, step string, got, want *Partitioned) {
	t.Helper()
	if len(got.Fragments) != len(want.Fragments) {
		t.Fatalf("%s: fragment count %d vs %d", step, len(got.Fragments), len(want.Fragments))
	}
	for f := range want.Fragments {
		gf, wf := got.Fragments[f], want.Fragments[f]
		requireSameIDs(t, fmt.Sprintf("%s: frag %d Local", step, f), gf.Local, wf.Local)
		requireSameIDs(t, fmt.Sprintf("%s: frag %d InBorder", step, f), gf.InBorder, wf.InBorder)
		requireSameIDs(t, fmt.Sprintf("%s: frag %d OutBorder", step, f), gf.OutBorder, wf.OutBorder)
		requireSlots(t, fmt.Sprintf("%s: frag %d", step, f), gf)
		gs, ws := edgeMultiset(gf.Graph), edgeMultiset(wf.Graph)
		if len(gs) != len(ws) {
			t.Fatalf("%s: frag %d edge sets differ: %d vs %d distinct", step, f, len(gs), len(ws))
		}
		for e, n := range ws {
			if gs[e] != n {
				t.Fatalf("%s: frag %d edge %+v count %d want %d", step, f, e, gs[e], n)
			}
		}
		if gf.Graph.NumVertices() != wf.Graph.NumVertices() {
			t.Fatalf("%s: frag %d |V| %d want %d", step, f, gf.Graph.NumVertices(), wf.Graph.NumVertices())
		}
		for i := 0; i < wf.Graph.NumVertices(); i++ {
			id := wf.Graph.VertexAt(i)
			if got, want := gf.Graph.LabelOf(id), wf.Graph.Label(i); got != want {
				t.Fatalf("%s: frag %d label of %d: %q want %q", step, f, id, got, want)
			}
		}
	}
	for v, wantMs := range want.GP.mirrors {
		gotMs := got.GP.mirrors[v]
		if len(gotMs) != len(wantMs) {
			t.Fatalf("%s: mirrors of %d: %v want %v", step, v, gotMs, wantMs)
		}
		for i := range gotMs {
			if gotMs[i] != wantMs[i] {
				t.Fatalf("%s: mirrors of %d: %v want %v", step, v, gotMs, wantMs)
			}
		}
	}
	for v := range got.GP.mirrors {
		if _, ok := want.GP.mirrors[v]; !ok {
			t.Fatalf("%s: stale mirror entry for %d", step, v)
		}
	}
}

// randomBatch generates a mixed batch against the current graph state.
func randomBatch(rng *rand.Rand, cur *graph.Graph, size int, nextID *int64) []graph.Update {
	var batch []graph.Update
	edges := cur.Edges()
	for len(batch) < size {
		switch rng.Intn(10) {
		case 0: // add vertex
			*nextID++
			batch = append(batch, graph.AddVertexUpdate(graph.VertexID(1_000_000+*nextID), "new"))
		case 1: // remove a random vertex
			if cur.NumVertices() > 2 {
				batch = append(batch, graph.RemoveVertexUpdate(cur.VertexAt(rng.Intn(cur.NumVertices()))))
			}
		case 2, 3: // remove a random edge
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, graph.RemoveEdgeUpdate(e.Src, e.Dst))
			}
		case 4: // reweight a random edge
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, graph.ReweightEdgeUpdate(e.Src, e.Dst, 0.5+rng.Float64()*9))
			}
		default: // insert an edge between random (possibly new) endpoints
			u := cur.VertexAt(rng.Intn(cur.NumVertices()))
			var v graph.VertexID
			if rng.Intn(4) == 0 {
				*nextID++
				v = graph.VertexID(1_000_000 + *nextID)
			} else {
				v = cur.VertexAt(rng.Intn(cur.NumVertices()))
			}
			if u != v {
				batch = append(batch, graph.AddEdgeUpdate(u, v, 0.5+rng.Float64()*9, ""))
			}
		}
	}
	return batch
}

func testApplyUpdatesEquivalence(t *testing.T, g *graph.Graph, seed int64) {
	const m = 4
	p := Partition(g, m, Hash{})
	place := HashPlacer(m)
	rng := rand.New(rand.NewSource(seed))
	cur := g
	var nextID int64
	for step := 0; step < 25; step++ {
		batch := randomBatch(rng, cur, 1+rng.Intn(6), &nextID)
		prev := p.Fragments
		p2, res := p.ApplyUpdates(batch, place)
		// Snapshot isolation: the old epoch's fragments are untouched.
		for f := range prev {
			if prev[f] != p.Fragments[f] {
				t.Fatalf("step %d: ApplyUpdates mutated its input", step)
			}
		}
		for f := range res.Changes {
			if p2.Fragments[f] == prev[f] {
				t.Fatalf("step %d: changed fragment %d shares the old Fragment value", step, f)
			}
		}
		cur = graph.ApplyUpdates(cur, batch)
		want := rebuildFromScratch(cur, p2.GP, m)
		requireEquivalent(t, fmt.Sprintf("step %d (seed %d)", step, seed), p2, want)
		p = p2
	}
}

func TestApplyUpdatesEquivalenceUndirected(t *testing.T) {
	g := graphgen.RoadNetwork(8, 8, graphgen.Config{Seed: 5})
	testApplyUpdatesEquivalence(t, g, 101)
}

func TestApplyUpdatesEquivalenceDirected(t *testing.T) {
	g := graphgen.SocialNetwork(120, 4, graphgen.Config{Seed: 6, Labels: 5})
	testApplyUpdatesEquivalence(t, g, 202)
}

func TestApplyUpdatesNewMirrorReship(t *testing.T) {
	// 0,1 -> frag A; edge 0-1 local. Adding a cross edge from another
	// fragment to 1 must report 1 in the owner's NewInBorder.
	b := graph.NewBuilder(true)
	b.AddVertex(0, "")
	b.AddVertex(1, "")
	b.AddVertex(2, "")
	b.AddEdge(0, 1, 1, "")
	g := b.Build()
	assign := []int{0, 0, 1}
	p := Build(g, assign, 2, "manual")

	p2, res := p.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(2, 1, 1, "")}, func(graph.VertexID) int { return 0 })
	ch0 := res.Changes[0]
	if ch0 == nil {
		t.Fatalf("owner fragment 0 not reported as affected: %+v", res.Changes)
	}
	found := false
	for _, v := range ch0.NewInBorder {
		if v == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("vertex 1 gained mirror 1 but NewInBorder=%v", ch0.NewInBorder)
	}
	if o := p2.GP.Owner(1); o != 0 {
		t.Fatalf("owner of 1 changed: %d", o)
	}
	ms := p2.GP.Mirrors(1)
	if len(ms) != 1 || ms[0] != 1 {
		t.Fatalf("mirrors of 1: %v", ms)
	}
	if in := p2.Fragments[0].InBorder; len(in) != 1 || in[0] != 1 {
		t.Fatalf("InBorder of frag 0: %v", in)
	}
}
