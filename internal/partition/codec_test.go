package partition

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"grape/internal/graph"
)

func codecGraph(directed bool, n, extra int, seed int64) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	labels := []string{"", "user", "product", "road"}
	b := graph.NewBuilder(directed)
	for v := 0; v < n; v++ {
		// Sparse external IDs exercise the delta encoding.
		b.AddVertex(graph.VertexID(v*7+3), labels[r.Intn(len(labels))])
	}
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v*7+3), graph.VertexID(((v+1)%n)*7+3), 1+r.Float64()*5, "")
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u*7+3), graph.VertexID(v*7+3), r.Float64()*10, labels[r.Intn(len(labels))])
		}
	}
	return b.Build()
}

// graphsEqual asserts the decoded fragment graph is structurally identical
// to the original, including dense-index order and adjacency order (the
// properties byte-identical distributed evaluation relies on).
func graphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.Directed() != want.Directed() {
		t.Fatalf("directedness differs")
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("size differs: got %v, want %v", got, want)
	}
	for i := 0; i < want.NumVertices(); i++ {
		if got.VertexAt(i) != want.VertexAt(i) {
			t.Fatalf("dense order differs at %d: got %d, want %d", i, got.VertexAt(i), want.VertexAt(i))
		}
		if got.Label(i) != want.Label(i) {
			t.Fatalf("label differs at %d", i)
		}
		if !reflect.DeepEqual(got.OutEdges(i), want.OutEdges(i)) {
			t.Fatalf("out-adjacency differs at dense index %d", i)
		}
	}
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		directed bool
		m        int
		strategy Strategy
	}{
		{"undirected-hash", false, 4, Hash{}},
		{"directed-hash", true, 3, Hash{}},
		{"directed-range", true, 5, Range{}},
		{"undirected-multilevel", false, 4, Multilevel{}},
		{"directed-vertexcut", true, 4, VertexCut{}},
		{"single-fragment", true, 1, Hash{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := codecGraph(tc.directed, 120, 200, 5)
			p := Partition(g, tc.m, tc.strategy)
			for _, f := range p.Fragments {
				enc := EncodeFragment(f)
				// Deterministic bytes: encoding twice is identical.
				if !bytes.Equal(enc, EncodeFragment(f)) {
					t.Fatalf("fragment %d: non-deterministic encoding", f.ID)
				}
				dec, err := DecodeFragment(enc)
				if err != nil {
					t.Fatalf("fragment %d: decode: %v", f.ID, err)
				}
				if dec.ID != f.ID {
					t.Fatalf("fragment ID: got %d, want %d", dec.ID, f.ID)
				}
				graphsEqual(t, dec.Graph, f.Graph)
				if !reflect.DeepEqual(dec.Local, f.Local) {
					t.Fatalf("fragment %d: Local differs", f.ID)
				}
				if !reflect.DeepEqual(dec.InBorder, f.InBorder) {
					t.Fatalf("fragment %d: InBorder differs", f.ID)
				}
				if !reflect.DeepEqual(dec.OutBorder, f.OutBorder) {
					t.Fatalf("fragment %d: OutBorder differs", f.ID)
				}
				for _, v := range f.Local {
					if !dec.Owns(v) {
						t.Fatalf("fragment %d: decoded fragment does not own %d", f.ID, v)
					}
				}
			}

			// Fragmentation graph round trip.
			enc := EncodeFragGraph(p.GP)
			if !bytes.Equal(enc, EncodeFragGraph(p.GP)) {
				t.Fatalf("non-deterministic GP encoding")
			}
			gp, err := DecodeFragGraph(enc)
			if err != nil {
				t.Fatalf("decode GP: %v", err)
			}
			if gp.NumFragments() != p.GP.NumFragments() {
				t.Fatalf("GP fragment count: got %d, want %d", gp.NumFragments(), p.GP.NumFragments())
			}
			for i := 0; i < g.NumVertices(); i++ {
				v := g.VertexAt(i)
				if gp.Owner(v) != p.GP.Owner(v) {
					t.Fatalf("GP owner of %d differs", v)
				}
				if !reflect.DeepEqual(gp.Mirrors(v), p.GP.Mirrors(v)) {
					t.Fatalf("GP mirrors of %d differ", v)
				}
				for from := 0; from < tc.m; from++ {
					if !reflect.DeepEqual(gp.Destinations(nil, v, from), p.GP.Destinations(nil, v, from)) {
						t.Fatalf("GP destinations of %d from %d differ", v, from)
					}
				}
			}
		})
	}
}

func TestFragmentCodecRejectsCorruptInput(t *testing.T) {
	g := codecGraph(true, 40, 60, 9)
	p := Partition(g, 3, Hash{})
	enc := EncodeFragment(p.Fragments[0])

	if _, err := DecodeFragment(nil); err == nil {
		t.Fatalf("decoded empty fragment buffer")
	}
	if _, err := DecodeFragment([]byte{0x7F}); err == nil {
		t.Fatalf("decoded unknown fragment format")
	}
	for cut := 1; cut < len(enc); cut += 7 {
		if _, err := DecodeFragment(enc[:cut]); err == nil {
			t.Fatalf("decoded fragment truncated at %d bytes", cut)
		}
	}

	gpEnc := EncodeFragGraph(p.GP)
	if _, err := DecodeFragGraph([]byte{0x7F}); err == nil {
		t.Fatalf("decoded unknown GP format")
	}
	for cut := 1; cut < len(gpEnc); cut += 5 {
		if _, err := DecodeFragGraph(gpEnc[:cut]); err == nil {
			t.Fatalf("decoded GP truncated at %d bytes", cut)
		}
	}
}

// TestFragmentCodecRejectsInconsistentSets checks that a well-framed fragment
// whose ID sets contradict its graph is rejected instead of being numbered:
// border slots index Graph, so a border vertex outside it must never decode.
func TestFragmentCodecRejectsInconsistentSets(t *testing.T) {
	g := codecGraph(true, 40, 60, 9)
	base := Partition(g, 3, Hash{}).Fragments[0]
	if len(base.InBorder) == 0 || len(base.OutBorder) == 0 {
		t.Fatalf("fixture needs both border sets, got |I|=%d |O|=%d", len(base.InBorder), len(base.OutBorder))
	}
	absent := graph.VertexID(1 << 40)
	with := func(ids []graph.VertexID, v graph.VertexID) []graph.VertexID {
		out := append([]graph.VertexID(nil), ids...)
		out = append(out, v)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for _, tc := range []struct {
		name   string
		mutate func(f *Fragment)
	}{
		{"out-border absent from graph", func(f *Fragment) { f.OutBorder = with(f.OutBorder, absent) }},
		{"in-border absent from graph", func(f *Fragment) { f.InBorder = with(f.InBorder, absent) }},
		{"owned absent from graph", func(f *Fragment) { f.Local = with(f.Local, absent) }},
		{"in-border not owned", func(f *Fragment) { f.InBorder = with(f.InBorder, f.OutBorder[0]) }},
		{"out-border owned", func(f *Fragment) { f.OutBorder = with(f.OutBorder, f.Local[0]) }},
		{"copy missing from out-border", func(f *Fragment) { f.OutBorder = f.OutBorder[1:] }},
		{"duplicate in-border", func(f *Fragment) { f.InBorder = append([]graph.VertexID{f.InBorder[0]}, f.InBorder...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := *base
			tc.mutate(&f)
			if _, err := DecodeFragment(EncodeFragment(&f)); err == nil {
				t.Fatalf("decoded an inconsistent fragment")
			}
		})
	}
	if _, err := DecodeFragment(EncodeFragment(base)); err != nil {
		t.Fatalf("consistent fragment rejected: %v", err)
	}
}
