package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
	"time"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/workload"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, specNames(); !equal(got, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	return endToEnd, perLayer
}

func specNames() []string {
	var out []string
	for _, s := range specs() {
		out = append(out, s.name)
	}
	return out
}

func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
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

func tinyConfig(t *testing.T, name string, traced bool) config {
	return config{workload: name, seed: 7, seconds: 0.2, traced: traced, scale: "tiny",
		traceDir: t.TempDir(), queries: 6, batches: 3}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at tiny scale, both
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json declares, with no failed operation.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range specs() {
		for _, traced := range []bool{false, true} {
			res, err := run(tinyConfig(t, w.name, traced), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var names []string
			for name, m := range res.Metrics {
				names = append(names, name)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
			want := endToEnd
			if traced {
				want = perLayer
				if f := res.Metrics["failed_frac"].Value; f != 0 {
					t.Errorf("%s: failed_frac = %v", w.name, f)
				}
			}
			if !equal(names, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json declares %v", w.name, traced, names, want)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d",
					w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

// corruptingTarget returns a wrong answer for one query and wrong view
// contents after one update.
type corruptingTarget struct {
	target
	badQuery, badView int
}

func (c corruptingTarget) query(op int, src graph.VertexID) (any, *metrics.Stats, error) {
	ans, st, err := c.target.query(op, src)
	if op == c.badQuery {
		switch a := ans.(type) {
		case map[graph.VertexID]float64:
			a[src] = 42
		case map[graph.VertexID]graph.VertexID:
			for v := range a {
				a[v] = v + 1000000
				break
			}
		}
	}
	return ans, st, err
}

func (c corruptingTarget) views() (map[graph.VertexID]float64, map[graph.VertexID]graph.VertexID, error) {
	dist, comps, err := c.target.views()
	if c.badView >= 0 {
		for v := range dist {
			dist[v] = -1
			break
		}
		for v := range comps {
			comps[v] = v + 1000000
			break
		}
	}
	return dist, comps, err
}

// TestOracleCountsCorruptedAnswers proves the oracle check is live: a wrong
// query answer and wrong view contents are each counted as a failure.
func TestOracleCountsCorruptedAnswers(t *testing.T) {
	for _, name := range []string{"kb-sssp", "social-cc"} {
		w, err := lookup(name, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		g, err := workload.Load(w.dataset, w.scale)
		if err != nil {
			t.Fatal(err)
		}
		in := makeInputs(g, 3, schedule(w))
		ft, err := openFacade(w, g, in, false)
		if err != nil {
			t.Fatal(err)
		}
		d := newClient(w, g, in, corruptingTarget{target: ft, badQuery: 1, badView: -1})
		for i := 0; i < 3; i++ {
			d.do(op{kind: opQuery, idx: i})
		}
		d.do(op{kind: opMaterialize})
		d.t = corruptingTarget{target: ft, badQuery: -1, badView: 1}
		d.do(op{kind: opUpdate, idx: 0})
		if err := ft.close(); err != nil {
			t.Fatal(err)
		}
		res := newResult(d)
		if res.Failed != 2 || res.Correct {
			t.Errorf("%s: failed=%d correct=%v, want the corrupted query and update counted (%v)",
				name, res.Failed, res.Correct, d.fails)
		}
	}
}

// TestReplayPassCatchesCorruptedAnswers proves that a pass run without the
// oracle is still checked: a wrong query answer and wrong view contents in
// a later pass each differ from the oracle-checked first pass.
func TestReplayPassCatchesCorruptedAnswers(t *testing.T) {
	w, err := lookup("kb-sssp", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	w.queries, w.batches = 4, 2
	g, err := workload.Load(w.dataset, w.scale)
	if err != nil {
		t.Fatal(err)
	}
	ops := schedule(w)
	in := makeInputs(g, 3, ops)
	pass := func(oracle bool, badQuery, badView int) *client {
		t.Helper()
		ft, err := openFacade(w, g, in, false)
		if err != nil {
			t.Fatal(err)
		}
		d := newClient(w, g, in, corruptingTarget{target: ft, badQuery: badQuery, badView: badView})
		d.oracle = oracle
		d.runOps(ops)
		if err := ft.close(); err != nil {
			t.Fatal(err)
		}
		if d.failed != 0 {
			t.Fatalf("pass failed: %v", d.fails)
		}
		return d
	}
	ref := pass(true, -1, -1)
	if m := compareRuns(ref.recs, pass(false, -1, -1).recs); len(m) != 0 {
		t.Fatalf("clean replay: mismatches %v", m)
	}
	// The corrupted query, then every op that reads the corrupted views:
	// the materialization and each batch.
	want := 1 + 1 + warmups + w.batches
	if m := compareRuns(ref.recs, pass(false, 2, 1).recs); len(m) != want {
		t.Fatalf("corrupted replay: %d mismatches %v, want %d", len(m), m, want)
	}
}

// narrowProgram forwards only the core.Program methods, dropping every
// optional interface of the program it wraps.
type narrowProgram struct{ core.Program }

// TestReplayCatchesDroppedInterfaces proves that the traced run's
// comparison with the untraced one catches a wrapper that drops optional
// interfaces: without ParallelCapable the engine runs the sequential sweep
// (p=1 instead of p=2), without DeltaProgram views recompute.
func TestReplayCatchesDroppedInterfaces(t *testing.T) {
	w, err := lookup("social-cc", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	w.parallelism = 2
	g, err := workload.Load(w.dataset, w.scale)
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(g, 5, schedule(w))
	ops := []op{{kind: opQuery, idx: 0}, {kind: opMaterialize}, {kind: opUpdate, idx: 0}}

	ft, err := openFacade(w, g, in, false)
	if err != nil {
		t.Fatal(err)
	}
	a := newClient(w, g, in, ft)
	for _, o := range ops {
		a.do(o)
	}
	if err := ft.close(); err != nil {
		t.Fatal(err)
	}

	replay := func(wrap func(core.Program, *recorder) core.Program) []string {
		t.Helper()
		tt, err := openTraced(w, g, in, newRecorder())
		if err != nil {
			t.Fatal(err)
		}
		tt.wrap = wrap
		tt.prog = wrap(queryProgram(w.query), tt.rec)
		b := newClient(w, g, in, tt)
		for _, o := range ops {
			b.do(o)
		}
		if err := tt.close(); err != nil {
			t.Fatal(err)
		}
		if len(b.fails) > 0 {
			t.Fatalf("replay failed: %v", b.fails)
		}
		return compareRuns(a.recs, b.recs)
	}
	if m := replay(wrapProgram); len(m) != 0 {
		t.Fatalf("full wrapper: mismatches %v", m)
	}
	narrow := func(p core.Program, rec *recorder) core.Program {
		return narrowProgram{wrapProgram(p, rec)}
	}
	m := replay(narrow)
	if len(m) != 2 {
		t.Fatalf("narrow wrapper: mismatches %v, want the query (p=1) and the update (recomputed)", m)
	}
	if err := sameCapabilities(queryProgram(w.query), narrow(queryProgram(w.query), nil)); err == nil {
		t.Fatal("sameCapabilities accepted a wrapper without optional interfaces")
	}
}

func TestSpanArithmetic(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: layerCore, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: layerPIE, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Layer: layerPIE, Start: 3 * ms, End: 6 * ms},
		{ID: 4, Layer: layerCore, Start: 12 * ms, End: 14 * ms},
	}
	self := selfTimes(spans)
	if self[1] != 5*ms || self[2] != 3*ms || self[4] != 2*ms {
		t.Fatalf("self times %v", self)
	}
	wall := exclusive(spans, 0, 20*ms)
	want := map[string]time.Duration{layerCore: 7 * ms, layerPIE: 5 * ms, "residual": 8 * ms}
	for l, d := range want {
		if wall[l] != d {
			t.Fatalf("exclusive %v, want %v", wall, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if p := percentile(xs, 50); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(xs, 90); p != 4.6 {
		t.Fatalf("p90 = %v", p)
	}
}
