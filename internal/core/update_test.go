package core

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"grape/internal/graph"
	"grape/internal/partition"
)

// deltaMinDist extends the minDist test program with an EvalDelta that
// absorbs edge/vertex inserts (hop distances can only shrink) and declines
// deletions, mirroring the structure of the real SSSP program.
type deltaMinDist struct {
	minDistProgram
	deltaCalls atomic.Int64
}

func (p *deltaMinDist) EvalDelta(ctx *Context, d FragmentDelta) (bool, error) {
	p.deltaCalls.Add(1)
	dist := hops(ctx)
	var seeds []graph.VertexID
	for _, op := range d.Ops {
		switch op.Kind {
		case graph.UpdateAddVertex:
			if op.Src == p.source && dist.lower(ctx, op.Src, 0) {
				seeds = append(seeds, op.Src)
			}
		case graph.UpdateAddEdge:
			if dist.lower(ctx, op.Dst, dist.get(op.Src)+1) {
				seeds = append(seeds, op.Dst)
			}
		case graph.UpdateReweightEdge:
			// hop distances ignore weights
		default:
			return false, nil
		}
	}
	p.relax(ctx, seeds)
	// A newly mirrored vertex may have been interior, with no parameter yet.
	for _, v := range d.NewInBorder {
		if dv := dist.get(v); !math.IsInf(dv, 1) {
			ctx.SetVar(v, 0, dv, nil)
			ctx.MarkDirty(v, 0)
		}
	}
	return true, nil
}

// pathGraph builds the directed path 0 -> 1 -> ... -> n-1.
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(true)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.VertexID(i), "")
	}
	for i := 0; i+1 < n; i++ {
		b.AddEdge(graph.VertexID(i), graph.VertexID(i+1), 1, "")
	}
	return b.Build()
}

func distances(t *testing.T, out any) map[graph.VertexID]float64 {
	t.Helper()
	m, ok := out.(map[graph.VertexID]float64)
	if !ok {
		t.Fatalf("output type %T", out)
	}
	return m
}

func TestApplyUpdatesInstallsNewEpoch(t *testing.T) {
	g := pathGraph(8)
	s, err := NewSession(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Epoch() != 0 {
		t.Fatalf("fresh session epoch = %d", s.Epoch())
	}

	stats, err := s.ApplyUpdates([]graph.Update{
		graph.AddVertexUpdate(100, ""),
		graph.AddEdgeUpdate(0, 100, 1, ""),
		graph.RemoveEdgeUpdate(55, 56), // missing: no-op
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != 1 || s.Epoch() != 1 || s.Updates() != 1 {
		t.Fatalf("epoch bookkeeping: stats=%+v session epoch=%d updates=%d", stats, s.Epoch(), s.Updates())
	}
	if stats.Applied != 2 {
		t.Fatalf("Applied = %d, want 2 (no-op removal not counted)", stats.Applied)
	}

	// A query after the batch sees the new vertex.
	prog := &minDistProgram{source: 0}
	res, err := s.Run(nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	dist := distances(t, res.Output)
	if dist[100] != 1 {
		t.Fatalf("dist[100] = %v, want 1", dist[100])
	}

	// Ownership of the new vertex is recorded in the current partition.
	if o := s.Partition().GP.Owner(100); o < 0 || o >= s.NumFragments() {
		t.Fatalf("owner of new vertex = %d", o)
	}
}

func TestViewIncrementalMaintenanceAndFallback(t *testing.T) {
	g := pathGraph(10)
	s, err := NewSession(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	prog := &deltaMinDist{minDistProgram: minDistProgram{source: 0}}
	view, err := s.Materialize(nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, out); d[9] != 9 {
		t.Fatalf("initial dist[9] = %v", d[9])
	}

	// Insert a shortcut: absorbed incrementally.
	stats, err := s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 8, 1, "")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 1 || stats.Recomputed != 0 {
		t.Fatalf("insert not maintained incrementally: %+v", stats)
	}
	out, err = view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, out); d[8] != 1 || d[9] != 2 {
		t.Fatalf("after shortcut: dist[8]=%v dist[9]=%v", d[8], d[9])
	}
	vs := view.Stats()
	if vs.Epoch != 1 || vs.Incremental != 1 || vs.Recomputed != 0 {
		t.Fatalf("view stats after insert: %+v", vs)
	}

	// Delete the shortcut: the program declines, triggering a full
	// recompute, and distances must grow back.
	stats, err = s.ApplyUpdates([]graph.Update{graph.RemoveEdgeUpdate(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recomputed != 1 {
		t.Fatalf("deletion should fall back to recompute: %+v", stats)
	}
	out, err = view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, out); d[8] != 8 || d[9] != 9 {
		t.Fatalf("after deletion: dist[8]=%v dist[9]=%v", d[8], d[9])
	}
}

func TestViewFullRecomputeForPlainPrograms(t *testing.T) {
	g := pathGraph(6)
	s, err := NewSession(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// minDistProgram does not implement DeltaProgram: every batch recomputes.
	prog := &minDistProgram{source: 0}
	view, err := s.Materialize(nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 5, 1, "")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 0 || stats.Recomputed != 1 {
		t.Fatalf("plain program should recompute: %+v", stats)
	}
	out, err := view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, out); d[5] != 1 {
		t.Fatalf("dist[5] = %v, want 1", d[5])
	}
}

func TestViewCloseStopsMaintenance(t *testing.T) {
	g := pathGraph(6)
	s, err := NewSession(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	view, err := s.Materialize(nil, &minDistProgram{source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 5, 1, "")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ViewsMaintained != 0 {
		t.Fatalf("closed view still maintained: %+v", stats)
	}
	// The stale result stays readable.
	out, err := view.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, out); d[5] != 5 {
		t.Fatalf("closed view result changed: %v", d[5])
	}
}

// flakyDeltaMinDist fails PEval on demand, simulating a full recompute that
// errors mid-maintenance.
type flakyDeltaMinDist struct {
	deltaMinDist
	failPEval atomic.Bool
}

func (p *flakyDeltaMinDist) PEval(ctx *Context) error {
	if p.failPEval.Load() {
		return errors.New("injected PEval failure")
	}
	return p.deltaMinDist.PEval(ctx)
}

// TestFailedMaintenanceForcesRecompute is a regression test: when a view's
// maintenance round fails, its retained per-fragment state has missed that
// batch, so the next (even monotone) batch must recompute from scratch
// rather than resume incrementally from the stale state.
func TestFailedMaintenanceForcesRecompute(t *testing.T) {
	g := pathGraph(8)
	s, err := NewSession(g, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	prog := &flakyDeltaMinDist{deltaMinDist: deltaMinDist{minDistProgram: minDistProgram{source: 0}}}
	view, err := s.Materialize(nil, prog)
	if err != nil {
		t.Fatal(err)
	}

	// Batch 1: a deletion (declines to full recompute) while PEval fails.
	prog.failPEval.Store(true)
	if _, err := s.ApplyUpdates([]graph.Update{graph.RemoveEdgeUpdate(6, 7)}); err == nil {
		t.Fatal("expected maintenance error")
	}
	if _, verr := view.Result(); verr == nil {
		t.Fatal("view should report the maintenance error")
	}

	// Batch 2: monotone, but the view is stale — it must recompute (and
	// thereby pick up batch 1's deletion), not resume incrementally.
	prog.failPEval.Store(false)
	stats, err := s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 5, 1, "")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 0 || stats.Recomputed != 1 {
		t.Fatalf("stale view must recompute: %+v", stats)
	}
	out, verr := view.Result()
	if verr != nil {
		t.Fatalf("error not cleared after successful recompute: %v", verr)
	}
	d := distances(t, out)
	if d[5] != 1 {
		t.Fatalf("dist[5] = %v, want 1 (batch 2 insert)", d[5])
	}
	if !math.IsInf(d[7], 1) {
		t.Fatalf("dist[7] = %v, want +Inf (batch 1 deletion must not be lost)", d[7])
	}

	// A healthy view resumes incremental maintenance afterwards.
	stats, err = s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 7, 1, "")})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 1 {
		t.Fatalf("recovered view should maintain incrementally: %+v", stats)
	}
	out, _ = view.Result()
	if d := distances(t, out); d[7] != 1 {
		t.Fatalf("dist[7] = %v, want 1", d[7])
	}
}

// TestCloseDuringUpdatesAndQueries races Close against concurrent Run,
// ApplyUpdates and Materialize calls: every call must either complete
// normally or fail with ErrSessionClosed, never panic, deadlock or corrupt
// state. Run with -race.
func TestCloseDuringUpdatesAndQueries(t *testing.T) {
	g := pathGraph(30)
	s, err := NewSession(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	check := func(err error) {
		if err != nil && !errors.Is(err, ErrSessionClosed) {
			t.Errorf("unexpected error: %v", err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 20; j++ {
				_, err := s.ApplyUpdates([]graph.Update{
					graph.AddEdgeUpdate(graph.VertexID(i), graph.VertexID(1000+i*100+j), 1, ""),
				})
				check(err)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < 10; j++ {
				_, err := s.Run(nil, &minDistProgram{source: 0})
				check(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		v, err := s.Materialize(nil, &deltaMinDist{minDistProgram: minDistProgram{source: 0}})
		check(err)
		if v != nil {
			if _, rerr := v.Result(); rerr != nil {
				check(rerr)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		check(s.Close())
	}()
	close(start)
	wg.Wait()

	// After Close, everything reports ErrSessionClosed.
	if _, err := s.Run(nil, &minDistProgram{source: 0}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Run after close: %v", err)
	}
	if _, err := s.ApplyUpdates([]graph.Update{graph.AddVertexUpdate(9999, "")}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("ApplyUpdates after close: %v", err)
	}
	if _, err := s.Materialize(nil, &minDistProgram{source: 0}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Materialize after close: %v", err)
	}
}

// TestSnapshotConsistencyAcrossEpochs verifies that a coordinator working
// over the workers of one epoch is unaffected by updates installing later
// epochs: fragments are immutable values, so the old epoch stays readable.
func TestSnapshotConsistencyAcrossEpochs(t *testing.T) {
	g := pathGraph(12)
	s, err := NewSession(g, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	workers, epoch, err := s.begin()
	if err != nil {
		t.Fatal(err)
	}
	// Install a new epoch while "holding" the old snapshot.
	if _, err := s.ApplyUpdates([]graph.Update{graph.AddEdgeUpdate(0, 11, 1, "")}); err != nil {
		t.Fatal(err)
	}
	co := &coordinator{opts: s.opts, cluster: s.cluster, workers: workers, epoch: epoch}
	res, err := co.run(nil, &minDistProgram{source: 0})
	s.done(epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, res.Output); d[11] != 11 {
		t.Fatalf("old-epoch query saw the new edge: dist[11]=%v", d[11])
	}
	// A fresh query sees the shortcut.
	res, err = s.Run(nil, &minDistProgram{source: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d := distances(t, res.Output); d[11] != 1 {
		t.Fatalf("new-epoch query missed the new edge: dist[11]=%v", d[11])
	}
}

func TestApplyUpdatesPlacerOption(t *testing.T) {
	g := pathGraph(4)
	p := partition.Partition(g, 2, partition.Hash{})
	s, err := NewSessionPartitioned(p, Options{Placer: func(graph.VertexID) int { return 1 }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.ApplyUpdates([]graph.Update{graph.AddVertexUpdate(77, "")}); err != nil {
		t.Fatal(err)
	}
	if o := s.Partition().GP.Owner(77); o != 1 {
		t.Fatalf("custom placer ignored: owner = %d", o)
	}
}
