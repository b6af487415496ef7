package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"grape/internal/graph"
	"grape/internal/obs"
	"grape/internal/workload"
)

// setupReps is how many sessions an untraced run brings up before its
// passes; setup_s is the median CPU time of these and the passes' set-ups.
const setupReps = 15

// minPasses is the least number of passes an untraced run makes over its
// schedule. Each timed op's CPU time is its median over the passes, so a
// burst of load from elsewhere on the host that hits one pass is dropped.
const minPasses = 3

func run(cfg config, out io.Writer) (result, error) {
	w, err := lookup(cfg.workload, cfg.scale)
	if err != nil {
		return result{}, err
	}
	if cfg.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive")
	}
	if cfg.queries > 0 {
		w.queries, w.batches = cfg.queries, cfg.batches
	}
	g, err := workload.Load(w.dataset, w.scale)
	if err != nil {
		return result{}, err
	}
	ops := schedule(w)
	in := makeInputs(g, cfg.seed, ops)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	st := newStamp(cfg, w, g)
	if cfg.traced {
		return runTraced(cfg, w, g, in, ops, st, out)
	}
	return runUntraced(w, g, in, ops, budget, st, out)
}

// runUntraced measures the end-to-end metrics through the grape facade. It
// runs the schedule pass after pass, each on a fresh session, until the
// budget would be exceeded by one more pass, and at least minPasses times.
// The first pass is checked against the oracle; every later pass must
// reproduce its answers, counts and update outcomes exactly.
func runUntraced(w spec, g *graph.Graph, in inputs, ops []op, budget time.Duration, st stamp, out io.Writer) (result, error) {
	var setups []float64
	open := func() (*facadeTarget, error) {
		runtime.GC()
		var ft *facadeTarget
		var err error
		_, cpu := measure(func() { ft, err = openFacade(w, g, in, false) })
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		return ft, nil
	}
	for i := 0; i < setupReps; i++ {
		t, err := open()
		if err != nil {
			return result{}, err
		}
		if err := t.close(); err != nil {
			return result{}, fmt.Errorf("close session: %w", err)
		}
	}

	var passes []*client
	var heap float64
	var longest time.Duration
	start := time.Now()
	for len(passes) < minPasses || time.Since(start)+longest <= budget {
		began := time.Now()
		t, err := open()
		if err != nil {
			return result{}, err
		}
		if len(passes) == 0 {
			heap = liveHeapMB()
		}
		d := newClient(w, g, in, t)
		d.oracle = len(passes) == 0
		d.runOps(ops)
		if err := t.close(); err != nil {
			d.failOutside("close session", err)
		}
		passes = append(passes, d)
		longest = max(longest, time.Since(began))
	}

	ref := passes[0]
	res := newResult(ref)
	for i, d := range passes[1:] {
		res.Attempted += len(d.recs)
		res.Failed += d.failed
		for _, m := range compareRuns(ref.recs, d.recs) {
			res.Failed++
			d.fails = append(d.fails, fmt.Sprintf("pass %d differs from pass 0: %s", i+1, m))
		}
	}
	res.Correct = res.Failed == 0
	qs := ref.timed(opQuery)
	qcpu, ucpu := passMedians(passes, opQuery), passMedians(passes, opUpdate)
	res.Metrics = map[string]metric{
		"setup_s":           {median(setups), "s"},
		"query_cpu_ms_p50":  {percentile(qcpu, 50), "ms"},
		"query_cpu_ms_p90":  {percentile(qcpu, 90), "ms"},
		"update_cpu_ms_p50": {percentile(ucpu, 50), "ms"},
		"update_cpu_ms_p90": {percentile(ucpu, 90), "ms"},
		"msgs_per_query":    {mean(qs, func(r record) float64 { return float64(r.msgs) }), "count"},
		"bytes_per_query":   {mean(qs, func(r record) float64 { return float64(r.bytes) }), "B"},
		"heap_mb":           {heap, "MiB"},
	}
	st.Samples = map[string]int{"setups": len(setups), "passes": len(passes),
		"queries": len(qcpu), "updates": len(ucpu), "ops": len(ops)}
	printHeader(out, st, passes...)
	return res, nil
}

// passMedians returns, for each timed op of one kind in the first pass, its
// median CPU time in ms over the passes in which it succeeded.
func passMedians(passes []*client, kind opKind) []float64 {
	var out []float64
	for _, id := range passes[0].timedIDs(kind) {
		var xs []float64
		for _, d := range passes {
			if id < len(d.recs) && d.recs[id].err == nil {
				xs = append(xs, float64(d.recs[id].cpu)/1e6)
			}
		}
		out = append(out, median(xs))
	}
	return out
}

// runTraced runs one pass of the schedule twice: phase A through the facade
// (with the session's /metrics endpoint on and heap counters sampled around
// each query), phase B through the instrumented session. Phase B must
// reproduce phase A's answers and counts exactly; every mismatch is a
// failure.
func runTraced(cfg config, w spec, g *graph.Graph, in inputs, ops []op, st stamp, out io.Writer) (result, error) {
	// Phase A: facade.
	runtime.GC()
	var ft *facadeTarget
	var err error
	setupWall, _ := measure(func() { ft, err = openFacade(w, g, in, true) })
	if err != nil {
		return result{}, err
	}
	a := newClient(w, g, in, ft)
	a.heapStats = true
	a.runOps(ops)
	scraped, scrapeErr := scrape(ft.s.DebugAddr())
	if err := ft.close(); err != nil {
		a.failOutside("close session", err)
	}
	if scrapeErr != nil {
		return result{}, fmt.Errorf("scrape /metrics: %w", scrapeErr)
	}

	// Phase B: the instrumented session replays exactly the same ops.
	runtime.GC()
	rec := newRecorder()
	tt, err := openTraced(w, g, in, rec)
	if err != nil {
		return result{}, err
	}
	// Phase B checks answers against the oracle too, so both phases leave the
	// same garbage between ops and their CPU times compare.
	b := newClient(w, g, in, tt)
	b.snap = readCounters
	phaseStart := rec.now()
	b.runOps(ops)
	phaseEnd := rec.now()
	if err := tt.close(); err != nil {
		b.failOutside("close traced session", err)
	}
	mismatches := compareRuns(a.recs, b.recs)

	spans := rec.snapshot()
	res := newResult(a)
	res.Attempted += len(b.recs)
	res.Failed += b.failed + len(mismatches)
	res.Correct = res.Failed == 0
	res.Metrics = perLayer(a, b, tt, spans, scraped, res)
	res.Metrics["setup_wall_s"] = metric{setupWall.Seconds(), "s"}

	st.Samples = map[string]int{"queries": len(a.timed(opQuery)), "updates": len(a.timed(opUpdate)),
		"ops": len(ops), "spans": len(spans)}
	printHeader(out, st, a)
	for _, m := range mismatches {
		fmt.Fprintln(out, "# mismatch:", m)
	}
	for _, f := range b.fails {
		fmt.Fprintln(out, "# traced failure:", f)
	}
	printAttribution(out, spans, phaseStart, phaseEnd)
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	if err := writeSpans(path, spans, st); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(out, "# spans written to", path)
	return res, nil
}

// newResult counts a client's ops and failures.
func newResult(d *client) result {
	return result{Correct: d.failed == 0, Attempted: len(d.recs), Failed: d.failed}
}

// compareRuns checks that the traced replay reproduced the untraced run:
// the same answers, messages, bytes, supersteps and sweep width per query,
// and the same update outcome (incremental vs recomputed) per batch.
func compareRuns(a, b []record) []string {
	var out []string
	if len(a) != len(b) {
		return []string{fmt.Sprintf("phase A ran %d ops, phase B %d", len(a), len(b))}
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.err != nil || y.err != nil {
			continue // already counted
		}
		var diff []string
		if x.digest != y.digest {
			diff = append(diff, "answer")
		}
		if x.msgs != y.msgs || x.bytes != y.bytes || x.enqueued != y.enqueued {
			diff = append(diff, fmt.Sprintf("messages %d/%dB vs %d/%dB", x.msgs, x.bytes, y.msgs, y.bytes))
		}
		if x.steps != y.steps || x.parallelism != y.parallelism {
			diff = append(diff, fmt.Sprintf("supersteps %d p=%d vs %d p=%d", x.steps, x.parallelism, y.steps, y.parallelism))
		}
		if x.upd.Incremental != y.upd.Incremental || x.upd.Recomputed != y.upd.Recomputed ||
			x.upd.Applied != y.upd.Applied || x.upd.AffectedFragments != y.upd.AffectedFragments {
			diff = append(diff, fmt.Sprintf("update inc/rec/affected %d/%d/%d vs %d/%d/%d",
				x.upd.Incremental, x.upd.Recomputed, x.upd.AffectedFragments,
				y.upd.Incremental, y.upd.Recomputed, y.upd.AffectedFragments))
		}
		if len(diff) > 0 {
			out = append(out, fmt.Sprintf("op %d (%c%d): %s", i, x.kind, x.idx, strings.Join(diff, ", ")))
		}
	}
	return out
}

// perLayer derives the per-layer metrics. Counts and engine stats come from
// phase A (facade) where they are per call; span-derived times and counter
// deltas come from phase B.
func perLayer(a, b *client, tt *tracedTarget, spans []span, scraped map[string]float64, res result) map[string]metric {
	qa, ua := a.timed(opQuery), a.timed(opUpdate)
	qb, ub := b.timed(opQuery), b.timed(opUpdate)
	perOp := spanTotals(spans)
	qOps, uOps := b.timedIDs(opQuery), b.timedIDs(opUpdate)
	avg := func(ids []int, f func(opTotals) float64) float64 {
		if len(ids) == 0 {
			return 0
		}
		var s float64
		for _, id := range ids {
			s += f(perOp[id])
		}
		return s / float64(len(ids))
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	sent := sum(qa, func(r record) float64 { return float64(r.msgs) })
	enq := sum(qa, func(r record) float64 { return float64(r.enqueued) })
	bytes := sum(qa, func(r record) float64 { return float64(r.bytes) })
	inc := sum(ua, func(r record) float64 { return float64(r.upd.Incremental) })
	rounds := inc + sum(ua, func(r record) float64 { return float64(r.upd.Recomputed) })
	frames := sum(b.recs, func(r record) float64 { return r.ctr.frames })
	compressed := sum(b.recs, func(r record) float64 { return r.ctr.compressedFrames })
	cpuA, cpuB := percentile(cpus(qa), 50), percentile(cpus(qb), 50)

	return map[string]metric{
		"partition.build_ms":                 {ms(tt.partitionTime), "ms"},
		"partition.border_vertices":          {float64(tt.borders), "count"},
		"partition.update_ms_per_batch":      {mean(ua, func(r record) float64 { return ms(r.upd.PartitionElapsed) }), "ms"},
		"partition.affected_frags_per_batch": {mean(ua, func(r record) float64 { return float64(r.upd.AffectedFragments) }), "count"},
		"core.supersteps_per_query":          {mean(qa, func(r record) float64 { return float64(r.steps) }), "count"},
		"core.self_ms_per_query":             {avg(qOps, func(t opTotals) float64 { return ms(t.coreSelf) }), "ms"},
		"core.idle_ms_per_query":             {mean(qa, func(r record) float64 { return ms(r.idle) }), "ms"},
		"core.alloc_kb_per_query":            {mean(qa, func(r record) float64 { return float64(r.allocBytes) / 1024 }), "KiB"},
		"core.gc_cycles_per_query":           {mean(qa, func(r record) float64 { return float64(r.gcs) }), "count"},
		"core.maintain_ms_per_batch":         {mean(ua, func(r record) float64 { return ms(r.upd.MaintainElapsed) }), "ms"},
		"core.incremental_frac":              {ratio(inc, rounds), "frac"},
		"core.worker_busy_ms_per_query":      {avg(qOps, func(t opTotals) float64 { return ms(t.worker) }), "ms"},
		"pie.peval_ms_per_query":             {avg(qOps, func(t opTotals) float64 { return ms(t.peval) }), "ms"},
		"pie.assemble_ms_per_query":          {avg(qOps, func(t opTotals) float64 { return ms(t.assemble) }), "ms"},
		"pie.inceval_ms_per_query":           {avg(qOps, func(t opTotals) float64 { return ms(t.inceval) }), "ms"},
		"pie.inceval_calls_per_query":        {avg(qOps, func(t opTotals) float64 { return float64(t.incevalCalls) }), "count"},
		"pie.evaldelta_ms_per_batch":         {avg(uOps, func(t opTotals) float64 { return ms(t.evaldelta) }), "ms"},
		"mpi.msgs_enqueued_per_query":        {mean(qa, func(r record) float64 { return float64(r.enqueued) }), "count"},
		"mpi.combine_ratio":                  {ratio(sent, enq), "frac"},
		"mpi.bytes_per_msg":                  {ratio(bytes, sent), "B"},
		"par.chunks_per_query":               {mean(qb, func(r record) float64 { return r.ctr.chunks }), "count"},
		"mpi.net.call_overhead_ms_per_query": {avg(qOps, func(t opTotals) float64 { return ms(t.peer - t.worker) }), "ms"},
		"mpi.net.wire_kb_per_query":          {mean(qb, func(r record) float64 { return r.ctr.wireBytes / 1024 }), "KiB"},
		"mpi.net.frames_per_query":           {mean(qb, func(r record) float64 { return r.ctr.frames }), "count"},
		"mpi.net.compressed_frac":            {ratio(compressed, frames), "frac"},
		"mpi.net.ship_ms_per_batch":          {mean(ua, func(r record) float64 { return ms(r.upd.ShipElapsed) }), "ms"},
		"mpi.net.ship_kb_per_batch":          {mean(ub, func(r record) float64 { return r.ctr.wireBytes / 1024 }), "KiB"},
		"mpi.net.conn_errors":                {scraped["grape_net_conn_errors_total"], "count"},
		"mpi.net.dial_retries":               {scraped["grape_net_dial_retries_total"], "count"},
		"trace_overhead_frac":                {ratio(cpuB, cpuA) - 1, "frac"},
		"query_ms_p50":                       {percentile(durations(qa), 50), "ms"},
		"query_ms_p90":                       {percentile(durations(qa), 90), "ms"},
		"update_ms_p50":                      {percentile(durations(ua), 50), "ms"},
		"update_ms_p90":                      {percentile(durations(ua), 90), "ms"},
		"failed_frac":                        {ratio(float64(res.Failed), float64(res.Attempted)), "frac"},
	}
}

// opTotals sums one op's spans by kind.
type opTotals struct {
	coreSelf, peer, worker              time.Duration
	peval, inceval, assemble, evaldelta time.Duration
	incevalCalls                        int
}

func spanTotals(spans []span) map[int]opTotals {
	self := selfTimes(spans)
	out := map[int]opTotals{}
	for _, s := range spans {
		t := out[s.Op]
		switch {
		case s.Parent == 0:
			t.coreSelf += self[s.ID]
		case s.Layer == layerNet:
			t.peer += s.dur()
		case s.Layer == layerWorker:
			t.worker += s.dur()
		case s.Name == "pie.PEval":
			t.peval += s.dur()
		case s.Name == "pie.IncEval":
			t.inceval += s.dur()
			t.incevalCalls++
		case s.Name == "pie.Assemble":
			t.assemble += s.dur()
		case s.Name == "pie.EvalDelta":
			t.evaldelta += s.dur()
		}
		out[s.Op] = t
	}
	return out
}

// printAttribution prints, for the traced phase, each layer's self time
// (summed over its spans, so concurrent fragments add up) and its share of
// wall time when every instant goes to the deepest active layer; the
// instants outside any op are the unattributed residual.
func printAttribution(out io.Writer, spans []span, from, to time.Duration) {
	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	for _, s := range spans {
		byLayer[s.Layer] += self[s.ID]
	}
	wall := exclusive(spans, from, to)
	layers := []string{layerCore, layerNet, layerWorker, layerPIE, "residual"}
	fmt.Fprintf(out, "# traced phase: %.3f s wall\n", (to - from).Seconds())
	fmt.Fprintf(out, "# %-12s %12s %12s %8s\n", "layer", "self_ms", "wall_ms", "wall_%")
	for _, l := range layers {
		fmt.Fprintf(out, "# %-12s %12.3f %12.3f %7.2f%%\n", l, float64(byLayer[l])/1e6,
			float64(wall[l])/1e6, 100*float64(wall[l])/float64(to-from))
	}
}

// readCounters reads the engine's process-wide obs counters. The loopback
// workers share the process, so wire counters cover both directions.
func readCounters() counters {
	var c counters
	for _, s := range obs.Default.Gather() {
		switch s.Name {
		case "grape_net_bytes_sent_total":
			c.wireBytes += s.Value
		case "grape_net_frames_sent_total":
			c.frames += s.Value
		case "grape_net_compressed_frames_total":
			c.compressedFrames += s.Value
		case "grape_parallel_chunks_total":
			c.chunks += s.Value
		}
	}
	return c
}

// scrape fetches the session's /metrics endpoint and sums every sample by
// metric name.
func scrape(addr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func cpus(rs []record) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.cpu) / 1e6
	}
	return out
}

func durations(rs []record) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.dur) / 1e6
	}
	return out
}

// percentile interpolates linearly between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(rs []record, f func(record) float64) float64 {
	var s float64
	for _, r := range rs {
		s += f(r)
	}
	return s
}

func mean(rs []record, f func(record) float64) float64 {
	return ratio(sum(rs, f), float64(len(rs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printHeader prints the run's stamp and its clients' failures as comment
// lines.
func printHeader(out io.Writer, st stamp, clients ...*client) {
	line, _ := json.Marshal(st)
	fmt.Fprintf(out, "# stamp %s\n", line)
	for _, d := range clients {
		for _, f := range d.fails {
			fmt.Fprintln(out, "# failure:", f)
		}
	}
}
