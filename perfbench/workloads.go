package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"grape/internal/graph"
	"grape/internal/workload"
)

// fragments is the fragment count of every workload's session.
const fragments = 4

// batchSize is the number of ops in one update batch.
const batchSize = 8

// spec describes one workload: the dataset surrogate, how the session is
// configured, and which query the closed-loop client issues. Why each
// workload exists is recorded in BENCHMARK.json and README.md.
type spec struct {
	name     string
	dataset  string
	scale    workload.Scale
	strategy string // partition strategy, by name
	// parallelism is Options.Parallelism: 0 keeps the facade's sequential
	// sweeps, runtime.NumCPU() matches the CLIs' default.
	parallelism int
	// procs is the number of loopback TCP worker processes (run as
	// in-process ServeWorkerCtx loops); 0 runs the session in process.
	procs int
	// query is "sssp" or "cc": what the client asks.
	query string
	// queries and batches are the timed queries and update batches of one
	// pass over the workload's schedule. Each is at least 100, so that ten
	// samples lie beyond p90.
	queries, batches int
}

func specs() []spec {
	return []spec{
		{name: "kb-sssp", dataset: workload.DBpedia, scale: workload.ScaleSmall,
			strategy: "multilevel", query: "sssp", queries: 150, batches: 100},
		{name: "social-cc", dataset: workload.LiveJournal, scale: workload.ScaleMedium,
			strategy: "hash", parallelism: runtime.NumCPU(), query: "cc", queries: 100, batches: 100},
		{name: "tcp-views", dataset: workload.DBpedia, scale: workload.ScaleSmall,
			strategy: "hash", procs: 2, query: "sssp", queries: 100, batches: 100},
	}
}

func workloadNames() string {
	var names []string
	for _, s := range specs() {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func lookup(name, scale string) (spec, error) {
	for _, s := range specs() {
		if s.name != name {
			continue
		}
		if scale != "" {
			sc, err := workload.ParseScale(scale)
			if err != nil {
				return spec{}, err
			}
			s.scale = sc
		}
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want one of %s)", name, workloadNames())
}

// schedule is the sequence of ops one pass runs; every pass of a run runs
// it on a fresh session, so op i sees the same graph in every pass. The
// first warmups ops of each kind warm the session up: they are run and
// checked like any other but stay out of the statistics.
//
// In-process workloads run their queries against the base graph, then
// materialize the view of their query and apply the update batches.
// tcp-views, whose views are materialized at set-up, follows each batch
// with queries/batches queries.
func schedule(w spec) []op {
	var ops []op
	qi := 0
	query := func(warm bool) {
		ops = append(ops, op{kind: opQuery, idx: qi, warm: warm})
		qi++
	}
	if w.procs == 0 {
		for i := 0; i < warmups+w.queries; i++ {
			query(i < warmups)
		}
		ops = append(ops, op{kind: opMaterialize})
		for i := 0; i < warmups+w.batches; i++ {
			ops = append(ops, op{kind: opUpdate, idx: i, warm: i < warmups})
		}
		return ops
	}
	perBatch := w.queries / w.batches
	for i := 0; i < warmups+w.batches; i++ {
		ops = append(ops, op{kind: opUpdate, idx: i, warm: i < warmups})
		for j := 0; j < perBatch; j++ {
			query(i < warmups)
		}
	}
	return ops
}

// inputs are everything the engine receives besides the graph, generated
// from the run's seed: the same seed gives the same inputs.
type inputs struct {
	// sources are the SSSP query sources, a stratified sample: the vertices
	// ordered by out-degree are cut into len(sources) equal strata, one
	// source is drawn from each, and the sources are shuffled. Message and
	// byte counts per query follow the source's degree, so stratifying
	// halves their spread from seed to seed against a plain random draw.
	sources []graph.VertexID
	// viewSource is the source of the materialized SSSP view: the vertex of
	// highest out-degree (the last of equals in vertex order), a landmark in the giant component whatever the
	// seed. The update stream never removes it.
	viewSource graph.VertexID
	// batches is a monotone update stream (edge inserts and vertex adds),
	// which SSSP and CC views absorb incrementally.
	batches [][]graph.Update
}

// makeInputs draws the query sources and update batches ops refer to.
func makeInputs(g *graph.Graph, seed int64, ops []op) inputs {
	nq, nb := 0, 0
	for _, o := range ops {
		switch o.kind {
		case opQuery:
			nq = max(nq, o.idx+1)
		case opUpdate:
			nb = max(nb, o.idx+1)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	// byDegree orders the vertices by out-degree; its last is the hub.
	byDegree := make([]int, n)
	for i := range byDegree {
		byDegree[i] = i
	}
	sort.SliceStable(byDegree, func(a, b int) bool {
		return g.OutDegree(byDegree[a]) < g.OutDegree(byDegree[b])
	})
	in := inputs{viewSource: g.VertexAt(byDegree[n-1])}
	in.sources = make([]graph.VertexID, nq)
	for i := range in.sources {
		lo, hi := i*n/nq, (i+1)*n/nq
		in.sources[i] = g.VertexAt(byDegree[lo+rng.Intn(max(hi-lo, 1))])
	}
	rng.Shuffle(nq, func(i, j int) { in.sources[i], in.sources[j] = in.sources[j], in.sources[i] })
	cfg := workload.MonotoneStreamConfig(seed, nb, batchSize)
	cfg.Protect = []graph.VertexID{in.viewSource}
	for _, tb := range workload.UpdateStream(g, cfg) {
		in.batches = append(in.batches, tb.Ops)
	}
	return in
}
