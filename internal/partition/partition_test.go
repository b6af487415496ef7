package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"grape/internal/graph"
	"grape/internal/graphgen"
)

func allStrategies() []Strategy {
	return []Strategy{Hash{}, Range{}, LDG{}, Multilevel{}, VertexCut{}}
}

func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"road":   graphgen.RoadNetwork(15, 15, graphgen.Config{Seed: 1}),
		"social": graphgen.SocialNetwork(400, 4, graphgen.Config{Seed: 2, Labels: 10}),
		"kb":     graphgen.KnowledgeBase(300, 3, 8, graphgen.Config{Seed: 3, Labels: 20}),
	}
}

// Every strategy must produce a valid assignment: all vertices covered,
// fragment IDs in range.
func TestStrategiesProduceValidAssignments(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, s := range allStrategies() {
			for _, m := range []int{1, 2, 4, 7} {
				assign := s.Assign(g, m)
				if len(assign) != g.NumVertices() {
					t.Fatalf("%s/%s m=%d: %d assignments for %d vertices",
						name, s.Name(), m, len(assign), g.NumVertices())
				}
				for i, a := range assign {
					if a < 0 || a >= m {
						t.Fatalf("%s/%s m=%d: vertex %d assigned to %d", name, s.Name(), m, i, a)
					}
				}
			}
		}
	}
}

// Partitioning must cover all vertices and edges: the union of fragment-local
// vertex sets equals V, every edge of G appears in at least one fragment.
func TestPartitionCoversGraph(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, s := range allStrategies() {
			p := Partition(g, 4, s)
			covered := make(map[graph.VertexID]int)
			for _, f := range p.Fragments {
				for _, v := range f.Local {
					covered[v]++
				}
			}
			if len(covered) != g.NumVertices() {
				t.Fatalf("%s/%s: %d vertices covered, want %d", name, s.Name(), len(covered), g.NumVertices())
			}
			for v, c := range covered {
				if c != 1 {
					t.Fatalf("%s/%s: vertex %d owned by %d fragments", name, s.Name(), v, c)
				}
			}
			for _, e := range g.Edges() {
				found := false
				for _, f := range p.Fragments {
					if f.Graph.HasEdge(e.Src, e.Dst) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("%s/%s: edge %v missing from all fragments", name, s.Name(), e)
				}
			}
		}
	}
}

// Border sets must be consistent with the fragmentation graph: a vertex in
// Fi.O is owned elsewhere and GP records fragment i as a mirror; a vertex in
// Fi.I is owned by i and some other fragment has it in its out-border.
func TestBorderSetsConsistentWithGP(t *testing.T) {
	g := graphgen.SocialNetwork(500, 5, graphgen.Config{Seed: 4, Labels: 10})
	for _, s := range allStrategies() {
		p := Partition(g, 5, s)
		for _, f := range p.Fragments {
			for _, v := range f.OutBorder {
				if f.Owns(v) {
					t.Fatalf("%s: out-border vertex %d is locally owned", s.Name(), v)
				}
				if owner := p.GP.Owner(v); owner == f.ID || owner < 0 {
					t.Fatalf("%s: GP owner of out-border %d = %d", s.Name(), v, owner)
				}
				if !slices.Contains(p.GP.Mirrors(v), f.ID) {
					t.Fatalf("%s: GP does not record fragment %d as mirror of %d", s.Name(), f.ID, v)
				}
			}
			for _, v := range f.InBorder {
				if !f.Owns(v) {
					t.Fatalf("%s: in-border vertex %d is not locally owned", s.Name(), v)
				}
				if !p.GP.IsBorder(v) {
					t.Fatalf("%s: in-border vertex %d not marked border in GP", s.Name(), v)
				}
			}
		}
	}
}

func TestDestinations(t *testing.T) {
	// Triangle split across three fragments: 0->1, 1->2, 2->0.
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1, 1, "")
	b.AddEdge(1, 2, 1, "")
	b.AddEdge(2, 0, 1, "")
	g := b.Build()
	p := Build(g, []int{0, 1, 2}, 3, "manual")

	// Vertex 1 is owned by fragment 1 and mirrored at fragment 0.
	dsts := p.GP.Destinations(nil, 1, 0)
	if len(dsts) != 1 || dsts[0] != 1 {
		t.Fatalf("Destinations(1, from=0) = %v, want [1]", dsts)
	}
	// From the owner, the update needs to reach the mirror.
	dsts = p.GP.Destinations(nil, 1, 1)
	if len(dsts) != 1 || dsts[0] != 0 {
		t.Fatalf("Destinations(1, from=1) = %v, want [0]", dsts)
	}
	if p.GP.Owner(99) != -1 {
		t.Fatalf("Owner of unknown vertex should be -1")
	}
	if got := p.GP.NumFragments(); got != 3 {
		t.Fatalf("NumFragments = %d, want 3", got)
	}
	if len(p.GP.BorderVertices()) != 3 {
		t.Fatalf("BorderVertices = %v, want all three vertices", p.GP.BorderVertices())
	}
}

func TestBalanceAndCut(t *testing.T) {
	g := graphgen.RoadNetwork(20, 20, graphgen.Config{Seed: 6})
	hash := Partition(g, 4, Hash{})
	multi := Partition(g, 4, Multilevel{})
	if hash.Balance() > 1.6 {
		t.Fatalf("hash balance = %v, want near 1.0", hash.Balance())
	}
	if multi.Balance() > 1.6 {
		t.Fatalf("multilevel balance = %v, want bounded by growth limit", multi.Balance())
	}
	// The locality-preserving partitioner must cut far fewer edges than hash
	// on a grid road network.
	if multi.CutEdges() >= hash.CutEdges() {
		t.Fatalf("multilevel cut %d >= hash cut %d; expected locality to help",
			multi.CutEdges(), hash.CutEdges())
	}
	// Range partitioning on a row-major grid is also local.
	rng := Partition(g, 4, Range{})
	if rng.CutEdges() >= hash.CutEdges() {
		t.Fatalf("range cut %d >= hash cut %d", rng.CutEdges(), hash.CutEdges())
	}
}

func TestSingleFragment(t *testing.T) {
	g := graphgen.SocialNetwork(100, 3, graphgen.Config{Seed: 7, Labels: 5})
	p := Partition(g, 1, Hash{})
	f := p.Fragments[0]
	if f.NumLocal() != g.NumVertices() {
		t.Fatalf("single fragment owns %d vertices, want %d", f.NumLocal(), g.NumVertices())
	}
	if len(f.InBorder) != 0 || len(f.OutBorder) != 0 {
		t.Fatalf("single fragment should have no border vertices")
	}
	if p.CutEdges() != 0 {
		t.Fatalf("single fragment cut = %d, want 0", p.CutEdges())
	}
	if len(p.GP.BorderVertices()) != 0 {
		t.Fatalf("single fragment should have no border vertices in GP")
	}
}

func TestPartitionPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Partition with m=0 should panic")
		}
	}()
	Partition(graph.NewBuilder(true).Build(), 0, Hash{})
}

func TestBuildNormalizesAssignment(t *testing.T) {
	b := graph.NewBuilder(true)
	b.AddEdge(0, 1, 1, "")
	g := b.Build()
	p := Build(g, []int{-3, 7}, 2, "manual")
	for _, a := range p.Assignment {
		if a < 0 || a >= 2 {
			t.Fatalf("assignment %v not normalized", p.Assignment)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"hash", "range", "ldg", "multilevel", "vertexcut"} {
		s, ok := ByName(name)
		if !ok || s.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, s, ok)
		}
	}
	if _, ok := ByName("metis2"); ok {
		t.Fatalf("ByName should fail for unknown strategy")
	}
}

func TestFragmentGraphsRunnable(t *testing.T) {
	// Fragments must contain the out-border copies so a sequential algorithm
	// can relax cross edges locally.
	g := graphgen.RoadNetwork(10, 10, graphgen.Config{Seed: 8})
	p := Partition(g, 4, Multilevel{})
	for _, f := range p.Fragments {
		for _, v := range f.OutBorder {
			if !f.Graph.HasVertex(v) {
				t.Fatalf("fragment %d missing out-border copy %d", f.ID, v)
			}
		}
		for _, v := range f.Local {
			if !f.Graph.HasVertex(v) {
				t.Fatalf("fragment %d missing owned vertex %d", f.ID, v)
			}
		}
	}
}

// Property: for random graphs and any strategy, vertex ownership is a
// partition of V (disjoint and complete) and every cross edge induces the
// matching border entries.
func TestQuickPartitionInvariants(t *testing.T) {
	strategies := allStrategies()
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := int(nRaw%60) + 5
		m := int(mRaw%6) + 1
		rng := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder(true)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.VertexID(i), "l")
		}
		for i := 0; i < 3*n; i++ {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				b.AddEdge(graph.VertexID(s), graph.VertexID(d), 1, "")
			}
		}
		g := b.Build()
		s := strategies[rng.Intn(len(strategies))]
		p := Partition(g, m, s)

		owned := map[graph.VertexID]int{}
		for _, f := range p.Fragments {
			for _, v := range f.Local {
				if _, dup := owned[v]; dup {
					return false
				}
				owned[v] = f.ID
			}
		}
		if len(owned) != n {
			return false
		}
		// Every cross edge (u,v) must give v ∈ F_owner(u).O and v ∈ F_owner(v).I.
		for _, e := range g.Edges() {
			fu := owned[e.Src]
			fv := owned[e.Dst]
			if fu == fv {
				continue
			}
			if !containsID(p.Fragments[fu].OutBorder, e.Dst) {
				return false
			}
			if !containsID(p.Fragments[fv].InBorder, e.Dst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func containsID(s []graph.VertexID, x graph.VertexID) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
