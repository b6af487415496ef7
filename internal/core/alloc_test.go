package core_test

import (
	"math"
	"runtime"
	"testing"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
	"grape/internal/pie"
)

// gadgetPartition builds units copies of a small gadget split over 4
// fragments: in unit u, ring vertex r(u,f) is owned by fragment f, with
// r(u,0) -> r(u,1) -> r(u,2) -> r(u,3), and each ring vertex has a private
// tail t(u,f). Fragment 1 thus holds two border vertices per unit (r(u,1)
// in Fi.I, r(u,2) in Fi.O), and the units are disconnected, so a distance
// change in one unit touches a fixed number of vertices however many units
// there are.
func gadgetPartition(units int) *partition.Partitioned {
	ring := func(u, f int) graph.VertexID { return graph.VertexID(u*8 + f) }
	tail := func(u, f int) graph.VertexID { return graph.VertexID(u*8 + 4 + f) }
	b := graph.NewBuilder(true)
	for u := 0; u < units; u++ {
		for f := 0; f < 4; f++ {
			b.AddVertex(ring(u, f), "")
			b.AddVertex(tail(u, f), "")
		}
		for f := 0; f < 4; f++ {
			if f < 3 {
				b.AddEdge(ring(u, f), ring(u, f+1), 1, "")
			}
			b.AddEdge(ring(u, f), tail(u, f), 1, "")
		}
	}
	g := b.Build()
	assign := make([]int, g.NumVertices())
	for i := range assign {
		assign[i] = int(g.VertexAt(i)) % 4
	}
	return partition.Build(g, assign, 4, "gadget")
}

// incEvalAllocs returns the allocation count and bytes of one SSSP IncEval
// superstep on fragment 1 of the gadget partition — decode, merge, bounded
// relaxation, re-shipping the border distances, routing — and checks on the
// way that routing with nothing dirty allocates nothing.
func incEvalAllocs(t *testing.T, units int) (count, bytes float64) {
	t.Helper()
	p := gadgetPartition(units)
	if got := p.Fragments[1].NumBorder(); got != 2*units {
		t.Fatalf("fragment 1 has %d border slots, want %d", got, 2*units)
	}
	// The source lives in fragment 0: PEval on fragment 1 finds nothing
	// reachable and leaves nothing dirty.
	tt := core.NewTaskForTest(p.Fragments[1], p.GP, graph.VertexID(0), pie.SSSP{})
	if err := tt.PEval(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, tt.Route); allocs != 0 {
		t.Fatalf("%d units: route with nothing dirty allocated %.1f times", units, allocs)
	}
	// Every superstep lowers the distance of r(0,1) (as fragment 0 would),
	// so the update is accepted and r(0,2) re-ships each time.
	step := 1
	superstep := func() {
		step++
		ups := []mpi.Update{{Vertex: 1, Value: 1e6 - float64(step)}}
		if err := tt.IncEval(step, 0, ups); err != nil {
			t.Fatal(err)
		}
	}
	count = testing.AllocsPerRun(100, superstep)
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		superstep()
	}
	runtime.ReadMemStats(&after)
	return count, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSuperstepAllocationsFlat guards the allocation-free hot path: routing
// with nothing dirty allocates nothing, and an IncEval superstep allocates
// the same number of times (and bytes) on a graph and on its 4x scale-up —
// the cost of the border table and of routing does not grow with the number
// of border vertices.
func TestSuperstepAllocationsFlat(t *testing.T) {
	small, smallBytes := incEvalAllocs(t, 64)
	large, largeBytes := incEvalAllocs(t, 256)
	t.Logf("per IncEval superstep: %.0f allocations / %.0f B (64 units), %.0f / %.0f B (256 units)",
		small, smallBytes, large, largeBytes)
	// Under the race detector sync.Pool drops Puts at random, and each drop
	// costs route a scratch rebuild, so the two scales may read a slightly
	// different count; a per-border cost would still differ by far more.
	tol, slack := 0.0, 64.0
	if raceEnabled {
		tol, slack = 2, 256
	}
	if math.Abs(small-large) > tol {
		t.Fatalf("IncEval superstep allocations grow with the border: %.0f at 64 units, %.0f at 256", small, large)
	}
	// Bytes too, with slack for a sync.Pool refill after a GC: a buffer
	// of one float64 per border slot would add 1.5 KB at the larger scale.
	if largeBytes > smallBytes+slack {
		t.Fatalf("IncEval superstep allocates %.0f B at 256 units, %.0f B at 64", largeBytes, smallBytes)
	}
}
