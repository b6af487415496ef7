package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"grape/internal/graph"
	"grape/internal/graphgen"
)

// requireSlots checks the border-slot numbering of f against its border
// sets: the slots list Fi.I ∪ Fi.O in ascending vertex-ID order, and the
// slot/index maps are mutually inverse over exactly those vertices.
func requireSlots(t *testing.T, what string, f *Fragment) {
	t.Helper()
	want := append(append([]graph.VertexID(nil), f.InBorder...), f.OutBorder...)
	slices.Sort(want)
	requireSameIDs(t, what+": border slots", f.Border(), want)
	if f.NumBorder() != len(want) {
		t.Fatalf("%s: NumBorder %d, want %d", what, f.NumBorder(), len(want))
	}
	for s, v := range f.Border() {
		i := f.BorderIndex(s)
		if f.Graph.VertexAt(i) != v || f.Slot(i) != s || f.SlotOf(v) != s {
			t.Fatalf("%s: slot %d (vertex %d) maps to index %d, back to slot %d", what, s, v, i, f.Slot(i))
		}
	}
	interior := 0
	for i := 0; i < f.Graph.NumVertices(); i++ {
		if f.Slot(i) < 0 {
			interior++
		}
	}
	if interior+f.NumBorder() != f.Graph.NumVertices() {
		t.Fatalf("%s: %d interior + %d border != %d vertices", what, interior, f.NumBorder(), f.Graph.NumVertices())
	}
	if f.SlotOf(-12345) != -1 {
		t.Fatalf("%s: unknown vertex has a slot", what)
	}
}

func TestBorderSlots(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, s := range allStrategies() {
			p := Partition(g, 4, s)
			for _, f := range p.Fragments {
				what := fmt.Sprintf("%s/%s frag %d", name, s.Name(), f.ID)
				requireSlots(t, what, f)
				dec, err := DecodeFragment(EncodeFragment(f))
				if err != nil {
					t.Fatalf("%s: decode: %v", what, err)
				}
				requireSlots(t, what+" (decoded)", dec)
				requireSameIDs(t, what+" decoded slots", dec.Border(), f.Border())
			}
		}
	}
}

// TestBorderSlotsAcrossUpdates checks that ApplyUpdates keeps the numbering
// of the fragments it leaves untouched (they are shared) and renumbers every
// rebuilt or cloned one.
func TestBorderSlotsAcrossUpdates(t *testing.T) {
	g := graphgen.SocialNetwork(150, 4, graphgen.Config{Seed: 8, Labels: 5})
	p := Partition(g, 4, Hash{})
	rng := rand.New(rand.NewSource(31))
	cur := g
	var nextID int64
	for step := 0; step < 25; step++ {
		batch := randomBatch(rng, cur, 1+rng.Intn(5), &nextID)
		p2, res := p.ApplyUpdates(batch, HashPlacer(4))
		for f, frag := range p2.Fragments {
			what := fmt.Sprintf("step %d frag %d", step, f)
			requireSlots(t, what, frag)
			if _, changed := res.Changes[f]; !changed && frag != p.Fragments[f] {
				t.Fatalf("%s: untouched fragment was replaced", what)
			}
		}
		cur = graph.ApplyUpdates(cur, batch)
		p = p2
	}
}

// TestDestinationsAppend checks the append form against a brute-force
// reference and that it does not allocate once the buffer has capacity.
func TestDestinationsAppend(t *testing.T) {
	g := graphgen.SocialNetwork(300, 5, graphgen.Config{Seed: 3, Labels: 4})
	p := Partition(g, 5, Hash{})
	buf := make([]int, 0, 8)
	for i := 0; i < g.NumVertices(); i++ {
		v := g.VertexAt(i)
		for from := 0; from < 5; from++ {
			var want []int
			for f := 0; f < 5; f++ {
				if f != from && (f == p.GP.Owner(v) || slices.Contains(p.GP.Mirrors(v), f)) {
					want = append(want, f)
				}
			}
			got := p.GP.Destinations(buf[:0], v, from)
			if !slices.Equal(got, want) {
				t.Fatalf("Destinations(%d, from=%d) = %v, want %v", v, from, got, want)
			}
		}
	}
	border := p.GP.BorderVertices()
	allocs := testing.AllocsPerRun(20, func() {
		for _, v := range border {
			buf = p.GP.Destinations(buf[:0], v, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("Destinations into a sized buffer allocated %.1f times per run", allocs)
	}
}
