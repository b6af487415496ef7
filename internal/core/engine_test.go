package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"grape/internal/graph"
	"grape/internal/graphgen"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// minDistProgram is a tiny PIE program used to exercise the engine: it
// computes unweighted hop distances from a source by BFS inside each
// fragment (PEval) and propagates improved border distances (IncEval) — a
// miniature of the paper's SSSP program. Distances live in a vertex-keyed map
// in ctx.State (simple rather than fast, and indifferent to epoch changes);
// border distances are mirrored into update parameters, whose changes the
// engine ships.
type minDistProgram struct {
	source graph.VertexID
	// peCalls / incCalls count invocations for the tests.
	mu       sync.Mutex
	peCalls  int
	incCalls int
}

// hopDist is minDistProgram's partial result: the known hop distances.
type hopDist map[graph.VertexID]float64

func hops(ctx *Context) hopDist {
	d, _ := ctx.State.(hopDist)
	if d == nil {
		d = make(hopDist)
		ctx.State = d
	}
	return d
}

func (d hopDist) get(v graph.VertexID) float64 {
	if dv, ok := d[v]; ok {
		return dv
	}
	return math.Inf(1)
}

// lower improves v's distance to dv, mirroring it into v's update parameter
// (a no-op for interior vertices), and reports whether it was an improvement.
func (d hopDist) lower(ctx *Context, v graph.VertexID, dv float64) bool {
	if dv >= d.get(v) {
		return false
	}
	d[v] = dv
	ctx.SetVar(v, 0, dv, nil)
	return true
}

func (p *minDistProgram) Name() string { return "minDist" }

func (p *minDistProgram) note(inc bool) {
	p.mu.Lock()
	if inc {
		p.incCalls++
	} else {
		p.peCalls++
	}
	p.mu.Unlock()
}

func (p *minDistProgram) relax(ctx *Context, queue []graph.VertexID) {
	g := ctx.Fragment.Graph
	d := hops(ctx)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		vi := g.IndexOf(v)
		if vi < 0 {
			continue
		}
		dv := d.get(v)
		for _, he := range g.OutEdges(vi) {
			if u := g.VertexAt(int(he.To)); d.lower(ctx, u, dv+1) {
				queue = append(queue, u)
			}
		}
	}
}

func (p *minDistProgram) PEval(ctx *Context) error {
	p.note(false)
	g := ctx.Fragment.Graph
	d := hops(ctx)
	for s := 0; s < ctx.Fragment.NumBorder(); s++ {
		ctx.DeclareAt(s, 0, math.Inf(1), nil)
	}
	// Border values received so far: the GRAPE_NI ablation re-runs PEval as
	// its batch recomputation over them.
	for _, u := range ctx.Vars() {
		if v := graph.VertexID(u.Vertex); u.Value < d.get(v) {
			d[v] = u.Value
		}
	}
	if g.HasVertex(p.source) {
		d.lower(ctx, p.source, 0)
	}
	var seeds []graph.VertexID
	for i := 0; i < g.NumVertices(); i++ {
		if v := g.VertexAt(i); !math.IsInf(d.get(v), 1) {
			seeds = append(seeds, v)
		}
	}
	p.relax(ctx, seeds)
	return nil
}

func (p *minDistProgram) IncEval(ctx *Context, msgs []mpi.Update) error {
	p.note(true)
	d := hops(ctx)
	queue := make([]graph.VertexID, 0, len(msgs))
	for _, m := range msgs {
		v := graph.VertexID(m.Vertex)
		if m.Value < d.get(v) {
			d[v] = m.Value
		}
		queue = append(queue, v)
	}
	p.relax(ctx, queue)
	return nil
}

func (p *minDistProgram) Assemble(q Query, ctxs []*Context) (any, error) {
	out := make(map[graph.VertexID]float64)
	for _, ctx := range ctxs {
		d, _ := ctx.State.(hopDist)
		for _, v := range ctx.Fragment.Local {
			out[v] = d.get(v)
		}
	}
	return out, nil
}

func (p *minDistProgram) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return MinAggregate(existing, incoming)
}

// referenceHopDistances computes hop distances sequentially for comparison.
func referenceHopDistances(g *graph.Graph, source graph.VertexID) map[graph.VertexID]float64 {
	out := make(map[graph.VertexID]float64, g.NumVertices())
	for i := 0; i < g.NumVertices(); i++ {
		out[g.VertexAt(i)] = math.Inf(1)
	}
	s := g.IndexOf(source)
	if s < 0 {
		return out
	}
	g.BFS(s, func(v, d int) bool {
		out[g.VertexAt(v)] = float64(d)
		return true
	})
	return out
}

func testGraph() *graph.Graph {
	// An undirected grid road network gives every source a large reachable
	// set and forces several IncEval rounds across fragments.
	return graphgen.RoadNetwork(12, 12, graphgen.Config{Seed: 11})
}

func TestEngineMatchesSequential(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	want := referenceHopDistances(g, src)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, strat := range []partition.Strategy{partition.Hash{}, partition.Multilevel{}} {
			eng := New(Options{Workers: workers, Strategy: strat})
			res, err := eng.Run(g, src, &minDistProgram{source: src})
			if err != nil {
				t.Fatalf("workers=%d strategy=%s: %v", workers, strat.Name(), err)
			}
			got := res.Output.(map[graph.VertexID]float64)
			if len(got) != len(want) {
				t.Fatalf("workers=%d: got %d distances, want %d", workers, len(got), len(want))
			}
			for v, d := range want {
				if got[v] != d {
					t.Fatalf("workers=%d strategy=%s: dist(%d) = %v, want %v",
						workers, strat.Name(), v, got[v], d)
				}
			}
			if res.Stats.Supersteps < 1 {
				t.Fatalf("no supersteps recorded")
			}
			if workers == 1 && res.Stats.MessagesSent != 0 {
				t.Fatalf("single worker should ship no messages, got %d", res.Stats.MessagesSent)
			}
		}
	}
}

func TestEngineStatsAndElapsed(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	eng := New(Options{Workers: 4})
	res, err := eng.Run(g, src, &minDistProgram{source: src})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Engine != "GRAPE" || st.Query != "minDist" || st.Workers != 4 {
		t.Fatalf("stats header wrong: %+v", st)
	}
	if st.Elapsed <= 0 {
		t.Fatalf("elapsed not recorded")
	}
	if st.MessagesSent == 0 || st.BytesSent == 0 {
		t.Fatalf("expected cross-fragment communication, got none")
	}
	if len(st.PerStep()) != st.Supersteps {
		t.Fatalf("per-step breakdown has %d entries for %d supersteps", len(st.PerStep()), st.Supersteps)
	}
	if !strings.Contains(st.String(), "GRAPE/minDist") {
		t.Fatalf("String() = %q", st.String())
	}
}

func TestEngineParallelismAndGroupingOptions(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	want := referenceHopDistances(g, src)

	grouped, err := New(Options{Workers: 6, WorkerConcurrency: 2}).Run(g, src, &minDistProgram{source: src})
	if err != nil {
		t.Fatal(err)
	}
	ungrouped, err := New(Options{Workers: 6, WorkerConcurrency: 2, DisableGrouping: true}).
		Run(g, src, &minDistProgram{source: src})
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range want {
		if grouped.Output.(map[graph.VertexID]float64)[v] != d ||
			ungrouped.Output.(map[graph.VertexID]float64)[v] != d {
			t.Fatalf("grouping option changed the answer for vertex %d", v)
		}
	}
	// Dynamic grouping batches updates: it must send strictly fewer messages
	// for the same number of shipped values.
	if grouped.Stats.MessagesSent >= ungrouped.Stats.MessagesSent {
		t.Fatalf("grouping did not reduce messages: %d vs %d",
			grouped.Stats.MessagesSent, ungrouped.Stats.MessagesSent)
	}
}

func TestEngineDisableIncEval(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	prog := &minDistProgram{source: src}
	res, err := New(Options{Workers: 4, DisableIncEval: true}).Run(g, src, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceHopDistances(g, src)
	got := res.Output.(map[graph.VertexID]float64)
	for v, d := range want {
		if got[v] != d {
			t.Fatalf("NI mode wrong distance for %d: %v want %v", v, got[v], d)
		}
	}
	if prog.incCalls != 0 {
		t.Fatalf("NI mode must not call IncEval, called %d times", prog.incCalls)
	}
	if prog.peCalls <= 4 {
		t.Fatalf("NI mode should re-run PEval in iterative supersteps, only %d calls", prog.peCalls)
	}
}

func TestEngineWorkerFailureRecovery(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	want := referenceHopDistances(g, src)
	failed := false
	var mu sync.Mutex
	inj := func(superstep, worker int) bool {
		mu.Lock()
		defer mu.Unlock()
		if superstep == 2 && worker == 1 && !failed {
			failed = true
			return true
		}
		return false
	}
	res, err := New(Options{Workers: 4, FailureInjector: inj}).Run(g, src, &minDistProgram{source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveredWorkers != 1 {
		t.Fatalf("RecoveredWorkers = %d, want 1", res.RecoveredWorkers)
	}
	got := res.Output.(map[graph.VertexID]float64)
	for v, d := range want {
		if got[v] != d {
			t.Fatalf("answer wrong after failure recovery: dist(%d)=%v want %v", v, got[v], d)
		}
	}
}

func TestEngineRecoveryBudgetExhausted(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	inj := func(superstep, worker int) bool { return superstep == 1 } // every worker fails forever
	_, err := New(Options{Workers: 4, MaxRecoveries: 2, FailureInjector: inj}).
		Run(g, src, &minDistProgram{source: src})
	if err == nil || !strings.Contains(err.Error(), "recovery budget") {
		t.Fatalf("expected recovery budget error, got %v", err)
	}
}

func TestEngineCoordinatorFailover(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)
	res, err := New(Options{Workers: 4, CoordinatorFailureAt: 2}).Run(g, src, &minDistProgram{source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.CoordinatorFailovers != 1 {
		t.Fatalf("CoordinatorFailovers = %d, want 1", res.CoordinatorFailovers)
	}
	want := referenceHopDistances(g, src)
	got := res.Output.(map[graph.VertexID]float64)
	for v, d := range want {
		if got[v] != d {
			t.Fatalf("answer wrong after coordinator failover")
		}
	}
}

// erroring / panicking programs.

type faultyProgram struct {
	minDistProgram
	failPEval bool
	failInc   bool
	panicInc  bool
}

func (p *faultyProgram) PEval(ctx *Context) error {
	if p.failPEval {
		return errors.New("peval exploded")
	}
	return p.minDistProgram.PEval(ctx)
}

func (p *faultyProgram) IncEval(ctx *Context, msgs []mpi.Update) error {
	if p.panicInc {
		panic("inceval panicked")
	}
	if p.failInc {
		return errors.New("inceval exploded")
	}
	return p.minDistProgram.IncEval(ctx, msgs)
}

func TestEngineProgramErrors(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(0)

	_, err := New(Options{Workers: 3}).Run(g, src, &faultyProgram{minDistProgram: minDistProgram{source: src}, failPEval: true})
	if err == nil || !strings.Contains(err.Error(), "PEval") {
		t.Fatalf("expected PEval error, got %v", err)
	}
	_, err = New(Options{Workers: 3}).Run(g, src, &faultyProgram{minDistProgram: minDistProgram{source: src}, failInc: true})
	if err == nil || !strings.Contains(err.Error(), "IncEval") {
		t.Fatalf("expected IncEval error, got %v", err)
	}
	_, err = New(Options{Workers: 3}).Run(g, src, &faultyProgram{minDistProgram: minDistProgram{source: src}, panicInc: true})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("expected recovered panic, got %v", err)
	}
	_, err = New(Options{Workers: 3}).Run(g, src, nil)
	if err == nil {
		t.Fatalf("nil program must be rejected")
	}
}

// nonConvergingProgram keeps flipping a border variable between two values,
// violating the monotonic condition; the engine must stop at MaxSupersteps
// with an error rather than hang (contrapositive of Theorem 1).
type nonConvergingProgram struct{ minDistProgram }

func (p *nonConvergingProgram) Name() string { return "oscillate" }

func (p *nonConvergingProgram) PEval(ctx *Context) error {
	for _, v := range ctx.Fragment.OutBorder {
		ctx.Declare(v, 0, 0, nil)
		ctx.SetVar(v, 0, 1, nil)
	}
	return nil
}

func (p *nonConvergingProgram) IncEval(ctx *Context, msgs []mpi.Update) error {
	for _, m := range msgs {
		ctx.SetVar(graph.VertexID(m.Vertex), 0, m.Value+1, nil)
	}
	return nil
}

func (p *nonConvergingProgram) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return incoming // last writer wins: not monotonic
}

func TestEngineMaxSuperstepsGuard(t *testing.T) {
	g := testGraph()
	_, err := New(Options{Workers: 4, MaxSupersteps: 10}).Run(g, nil, &nonConvergingProgram{})
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("expected non-convergence error, got %v", err)
	}
}

// wordCountProgram demonstrates the MapReduce simulation of Theorem 2: PEval
// is the Map function emitting (word, 1) key-value pairs from the vertex
// labels of its fragment; IncEvalKV is the Reduce function summing counts for
// the keys routed to this worker; Assemble unions the per-worker counts.
type wordCountProgram struct{}

func (wordCountProgram) Name() string { return "wordcount" }

func (wordCountProgram) PEval(ctx *Context) error {
	g := ctx.Fragment.Graph
	for _, v := range ctx.Fragment.Local {
		i := g.IndexOf(v)
		for _, word := range strings.Fields(g.Label(i)) {
			ctx.EmitKeyValue(word, []byte{1})
		}
	}
	return nil
}

func (wordCountProgram) IncEval(ctx *Context, msgs []mpi.Update) error { return nil }

func (wordCountProgram) IncEvalKV(ctx *Context, msgs []mpi.KeyValue) error {
	counts, _ := ctx.State.(map[string]int)
	if counts == nil {
		counts = make(map[string]int)
		ctx.State = counts
	}
	for _, kv := range msgs {
		counts[kv.Key] += len(kv.Value)
	}
	return nil
}

func (wordCountProgram) Assemble(q Query, ctxs []*Context) (any, error) {
	total := make(map[string]int)
	for _, ctx := range ctxs {
		if counts, ok := ctx.State.(map[string]int); ok {
			for w, c := range counts {
				total[w] += c
			}
		}
	}
	return total, nil
}

func (wordCountProgram) Aggregate(existing, incoming mpi.Update) mpi.Update { return incoming }

func TestSimulateMapReduceWordCount(t *testing.T) {
	// Build a graph whose vertex labels are small documents.
	b := graph.NewBuilder(true)
	docs := []string{
		"the quick brown fox",
		"the lazy dog",
		"quick quick fox",
		"dog eats fox",
	}
	for i, d := range docs {
		b.AddVertex(graph.VertexID(i), d)
	}
	b.AddEdge(0, 1, 1, "")
	b.AddEdge(2, 3, 1, "")
	g := b.Build()

	res, err := New(Options{Workers: 3}).Run(g, nil, wordCountProgram{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.(map[string]int)
	want := map[string]int{"the": 2, "quick": 3, "brown": 1, "fox": 3, "lazy": 1, "dog": 2, "eats": 1}
	if len(got) != len(want) {
		t.Fatalf("word count = %v, want %v", got, want)
	}
	for w, c := range want {
		if got[w] != c {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], c)
		}
	}
	// The map and reduce phases are separate supersteps, as in the Theorem 2
	// construction (one superstep per phase).
	if res.Stats.Supersteps != 2 {
		t.Fatalf("MapReduce simulation took %d supersteps, want 2", res.Stats.Supersteps)
	}
}

type kvWithoutHandler struct{ wordCountProgram }

func (kvWithoutHandler) IncEvalKV(ctx *Context, msgs []mpi.KeyValue) error {
	return errors.New("should not be called")
}

func TestKeyValueWithoutHandlerFails(t *testing.T) {
	// A program that emits key-value messages but does not implement
	// KeyValueProgram must produce a clear error. We simulate that by
	// wrapping the word-count program in a type that hides the interface.
	type hidden struct{ Program }
	b := graph.NewBuilder(true)
	b.AddVertex(1, "hello world")
	b.AddVertex(2, "world")
	b.AddEdge(1, 2, 1, "")
	g := b.Build()
	_, err := New(Options{Workers: 2}).Run(g, nil, hidden{wordCountProgram{}})
	if err == nil || !strings.Contains(err.Error(), "KeyValueProgram") {
		t.Fatalf("expected KeyValueProgram error, got %v", err)
	}
}

// borderAndInterior returns two border vertices and one interior vertex of
// frag, in ascending order for the border pair.
func borderAndInterior(t *testing.T, frag *partition.Fragment) (b0, b1, interior graph.VertexID) {
	t.Helper()
	if frag.NumBorder() < 2 {
		t.Fatalf("fragment %d has %d border vertices, want >= 2", frag.ID, frag.NumBorder())
	}
	for i := 0; i < frag.Graph.NumVertices(); i++ {
		if frag.Slot(i) < 0 {
			return frag.Border()[0], frag.Border()[1], frag.Graph.VertexAt(i)
		}
	}
	t.Fatalf("fragment %d has no interior vertex", frag.ID)
	return
}

func TestContextVarAccessors(t *testing.T) {
	g := testGraph()
	p := partition.Partition(g, 2, partition.Hash{})
	ctx := newContext(0, p.Fragments[0], p.GP, nil)
	b0, b1, interior := borderAndInterior(t, p.Fragments[0])

	if _, ok := ctx.Var(b0, 0); ok {
		t.Fatalf("Var before Declare should not exist")
	}
	if got := ctx.VarValue(b0, 0, -5); got != -5 {
		t.Fatalf("VarValue default = %v, want -5", got)
	}
	if ctx.rows != nil {
		t.Fatalf("reading parameters must not allocate the table")
	}
	ctx.Declare(b0, 0, 10, nil)
	if ctx.LocalUpdates() != 0 {
		t.Fatalf("Declare must not count as an update")
	}
	ctx.SetVar(b0, 0, 10, nil) // unchanged value: no dirty mark
	if ctx.hasDirty() {
		t.Fatalf("SetVar with unchanged value should not mark dirty")
	}
	if !ctx.SetVar(b0, 0, 3, nil) {
		t.Fatalf("SetVar on border vertex %d reported no slot", b0)
	}
	if d := ctx.takeDirty(nil); len(d) != 1 || d[0].Value != 3 || ctx.LocalUpdates() != 1 {
		t.Fatalf("SetVar with new value should mark dirty, took %+v", d)
	}
	ctx.SetVar(b1, 1, 7, []byte("x"))
	vars := ctx.Vars()
	if len(vars) != 2 || vars[0].Vertex != int64(b0) || vars[1].Vertex != int64(b1) || string(vars[1].Data) != "x" {
		t.Fatalf("Vars() = %+v", vars)
	}
	// An interior vertex has no slot: its parameter can never ship, so
	// declaring or setting it is a no-op, and both calls report it.
	if ctx.Declare(interior, 0, 1, nil) || ctx.SetVar(interior, 0, 2, nil) {
		t.Fatalf("Declare/SetVar on interior vertex %d reported a slot", interior)
	}
	if _, ok := ctx.Var(interior, 0); ok || ctx.MarkDirty(interior, 0) || ctx.LocalUpdates() != 2 {
		t.Fatalf("interior vertex %d got a parameter", interior)
	}
}

func TestApplyIncomingAggregation(t *testing.T) {
	g := testGraph()
	p := partition.Partition(g, 2, partition.Hash{})
	ctx := newContext(0, p.Fragments[0], p.GP, nil)
	b0, b1, interior := borderAndInterior(t, p.Fragments[0])
	ctx.Declare(b0, 0, 10, nil)

	accepted := ctx.applyIncoming([]mpi.Update{
		{Vertex: int64(b0), Key: 0, Value: 12}, // worse: rejected by min
		{Vertex: int64(b0), Key: 0, Value: 4},  // better: accepted
		{Vertex: int64(b1), Key: 0, Value: 2},  // undeclared: accepted as-is
	}, MinAggregate)
	if len(accepted) != 2 {
		t.Fatalf("accepted %d updates, want 2 (%+v)", len(accepted), accepted)
	}
	if got := ctx.VarValue(b0, 0, -1); got != 4 {
		t.Fatalf("aggregated value = %v, want 4", got)
	}
	if got := ctx.VarValue(b1, 0, -1); got != 2 {
		t.Fatalf("new variable value = %v, want 2", got)
	}
	// Incoming changes are not marked dirty.
	if ctx.hasDirty() {
		t.Fatalf("applyIncoming must not mark dirty")
	}
	// An update for a vertex without a slot has nothing to merge into: it
	// is passed through to IncEval and not stored.
	if got := ctx.applyIncoming([]mpi.Update{{Vertex: int64(interior), Value: 1}}, MinAggregate); len(got) != 1 {
		t.Fatalf("interior update accepted %d times, want 1", len(got))
	}
	if _, ok := ctx.Var(interior, 0); ok {
		t.Fatalf("interior update was stored")
	}
}

func TestAggregators(t *testing.T) {
	a := mpi.Update{Value: 3, Key: 1}
	b := mpi.Update{Value: 5, Key: 2}
	if MinAggregate(a, b).Value != 3 || MinAggregate(b, a).Value != 3 {
		t.Fatalf("MinAggregate wrong")
	}
	if MaxAggregate(a, b).Value != 5 || MaxAggregate(b, a).Value != 5 {
		t.Fatalf("MaxAggregate wrong")
	}
	if LatestAggregate(a, b).Key != 2 || LatestAggregate(b, a).Key != 2 {
		t.Fatalf("LatestAggregate wrong")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 1 || o.WorkerConcurrency != 1 || o.Strategy == nil {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.MaxSupersteps != defaultMaxSupersteps || o.MaxRecoveries != defaultMaxRecoveries {
		t.Fatalf("limit defaults wrong: %+v", o)
	}
	o = Options{Workers: 4, WorkerConcurrency: 99}.withDefaults()
	if o.WorkerConcurrency != 4 {
		t.Fatalf("worker concurrency not clamped to workers: %+v", o)
	}
}

// TestAssuranceDeterminism re-runs the same query several times with the same
// partition and asserts the outcome — including superstep count and shipped
// values — is identical, the determinism argument in the proof of Theorem 1.
func TestAssuranceDeterminism(t *testing.T) {
	g := testGraph()
	src := g.VertexAt(3)
	p := partition.Partition(g, 5, partition.Multilevel{})
	var firstOut string
	var firstSteps int
	for run := 0; run < 3; run++ {
		res, err := New(Options{Workers: 5}).RunPartitioned(p, src, &minDistProgram{source: src})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Output.(map[graph.VertexID]float64)
		keys := make([]int, 0, len(got))
		for v := range got {
			keys = append(keys, int(v))
		}
		sort.Ints(keys)
		var sb strings.Builder
		for _, v := range keys {
			fmt.Fprintf(&sb, "%d=%v;", v, got[graph.VertexID(v)])
		}
		if run == 0 {
			firstOut = sb.String()
			firstSteps = res.Stats.Supersteps
			continue
		}
		if sb.String() != firstOut {
			t.Fatalf("run %d produced a different answer", run)
		}
		if res.Stats.Supersteps != firstSteps {
			t.Fatalf("run %d took %d supersteps, first run took %d", run, res.Stats.Supersteps, firstSteps)
		}
	}
}
