package main

import (
	"fmt"
	"math"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/seq"
)

// opKind is what one client operation does.
type opKind byte

const (
	opQuery       opKind = 'q'
	opUpdate      opKind = 'u'
	opMaterialize opKind = 'm'
)

// op is one client operation; idx indexes inputs.sources (queries) or
// inputs.batches (updates). Warm-up ops run and are checked like any other
// but stay out of the latency and per-op statistics.
type op struct {
	kind opKind
	idx  int
	warm bool
}

// record is what the client observed for one op.
type record struct {
	op
	// dur is the op's wall time, cpu the process CPU time it used.
	dur, cpu time.Duration
	err      error
	// bad marks an op that errored or failed the oracle.
	bad bool
	// digest fingerprints the answer (queries) or the views after the
	// batch (updates), so two runs of the same ops compare exactly.
	digest uint64

	// Query records: the engine's own per-query Stats.
	msgs, bytes, enqueued int64
	steps, parallelism    int
	idle                  time.Duration
	// Update records.
	upd core.UpdateStats

	// Process-wide allocation and GC cycles around the call (when the
	// client samples heap counters).
	allocBytes, gcs uint64
	// Engine counter deltas around the call (when the client has a
	// counter source).
	ctr counters
}

// counters are engine-wide obs counters the benchmark reads around each op.
type counters struct {
	wireBytes, frames, compressedFrames, chunks float64
}

func (c counters) sub(o counters) counters {
	return counters{c.wireBytes - o.wireBytes, c.frames - o.frames,
		c.compressedFrames - o.compressedFrames, c.chunks - o.chunks}
}

// measure runs call and returns its wall time and the CPU time the process
// spent meanwhile, over all threads: the engine's goroutines, the in-process
// workers and the garbage collector. Unlike wall time, CPU time does not
// grow when a shared host steals the machine's CPUs.
func measure(call func()) (wall, cpu time.Duration) {
	c0, t0 := processCPU(), time.Now()
	call()
	return time.Since(t0), processCPU() - c0
}

// heapCounters returns the process's cumulative heap allocation in bytes and
// its completed GC cycles. It reads runtime/metrics, which unlike
// runtime.ReadMemStats does not stop the world, so it leaves the call it
// brackets undisturbed.
func heapCounters() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// processCPU returns the CPU time the process has used, over all threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// warmups is the number of untimed leading ops of each kind.
const warmups = 3

// client is the closed-loop load generator: it sends each op only after the
// previous one returned, times it, and checks the answer against the
// sequential oracle on a shadow copy of the graph, outside the timed region.
type client struct {
	w  spec
	in inputs
	t  target
	// oracle checks answers against the sequential oracle. Without it the
	// client only fingerprints them, for comparison with a pass that was
	// checked (compareRuns), and leaves no oracle garbage between ops.
	oracle bool
	// cur is the shadow graph: the base graph with every applied batch.
	cur *graph.Graph
	// heapStats samples the heap counters around each query.
	heapStats bool
	// snap, when set, reads the engine counters around each op.
	snap func() counters

	ccCache map[graph.VertexID]graph.VertexID // oracle CC of cur
	recs    []record
	fails   []string // failure messages
	failed  int      // failed ops, plus failures outside any op
}

func newClient(w spec, g *graph.Graph, in inputs, t target) *client {
	return &client{w: w, in: in, t: t, oracle: true, cur: g}
}

// fail records that op r failed; an op counts once however many of its
// checks fail.
func (d *client) fail(r *record, format string, args ...any) {
	if !r.bad {
		r.bad = true
		d.failed++
	}
	d.fails = append(d.fails, fmt.Sprintf("op %d (%c%d): ", len(d.recs), r.kind, r.idx)+fmt.Sprintf(format, args...))
}

// failOutside records a failure outside any op, such as closing a session.
func (d *client) failOutside(what string, err error) {
	d.failed++
	d.fails = append(d.fails, what+": "+err.Error())
}

// do runs one op and records it.
func (d *client) do(o op) {
	id := len(d.recs)
	r := record{op: o}
	var before counters
	if d.snap != nil {
		before = d.snap()
	}
	switch o.kind {
	case opQuery:
		d.doQuery(id, &r)
	case opUpdate:
		batch := d.in.batches[o.idx]
		var st *core.UpdateStats
		var err error
		r.dur, r.cpu = measure(func() { st, err = d.t.update(id, batch) })
		if d.oracle {
			d.cur = graph.ApplyUpdates(d.cur, batch)
			d.ccCache = nil
		}
		r.err = err
		if st != nil {
			r.upd = *st
		}
		if err == nil {
			d.checkViews(&r)
		}
	case opMaterialize:
		r.dur, r.cpu = measure(func() { r.err = d.t.materialize(id) })
		if r.err == nil {
			d.checkViews(&r)
		}
	}
	if d.snap != nil {
		r.ctr = d.snap().sub(before)
	}
	if r.err != nil {
		d.fail(&r, "%v", r.err)
	}
	d.recs = append(d.recs, r)
}

func (d *client) doQuery(id int, r *record) {
	src := d.in.sources[r.idx]
	var alloc0, gcs0 uint64
	if d.heapStats {
		alloc0, gcs0 = heapCounters()
	}
	var ans any
	var st *metrics.Stats
	var err error
	r.dur, r.cpu = measure(func() { ans, st, err = d.t.query(id, src) })
	if d.heapStats {
		alloc1, gcs1 := heapCounters()
		r.allocBytes, r.gcs = alloc1-alloc0, gcs1-gcs0
	}
	if r.err = err; err != nil {
		return
	}
	r.msgs, r.bytes, r.enqueued = st.MessagesSent, st.BytesSent, st.MessagesEnqueued
	r.steps, r.parallelism, r.idle = st.Supersteps, st.Parallelism, st.TotalIdle()
	switch a := ans.(type) {
	case map[graph.VertexID]float64:
		r.digest = digestDist(a)
		if !d.oracle {
			break
		}
		if err := sameDist(a, seq.Dijkstra(d.cur, src)); err != nil {
			d.fail(r, "SSSP from %d: %v", src, err)
		}
	case map[graph.VertexID]graph.VertexID:
		r.digest = digestComps(a)
		if !d.oracle {
			break
		}
		if err := sameComps(a, d.oracleCC()); err != nil {
			d.fail(r, "CC: %v", err)
		}
	default:
		r.err = fmt.Errorf("unexpected answer type %T", ans)
	}
}

// checkViews reads the materialized views, fingerprints them and checks
// them against the oracle on the shadow graph.
func (d *client) checkViews(r *record) {
	dist, comps, err := d.t.views()
	if err != nil {
		r.err = fmt.Errorf("read views: %w", err)
		return
	}
	r.digest = digestDist(dist)*31 + digestComps(comps)
	if !d.oracle {
		return
	}
	wantSSSP, wantCC := d.w.viewKinds()
	if wantSSSP {
		if err := sameDist(dist, seq.Dijkstra(d.cur, d.in.viewSource)); err != nil {
			d.fail(r, "SSSP view from %d: %v", d.in.viewSource, err)
		}
	}
	if wantCC {
		if err := sameComps(comps, d.oracleCC()); err != nil {
			d.fail(r, "CC view: %v", err)
		}
	}
}

func (d *client) oracleCC() map[graph.VertexID]graph.VertexID {
	if d.ccCache == nil {
		d.ccCache = seq.ConnectedComponents(d.cur)
	}
	return d.ccCache
}

// runOps runs ops in order and records each.
func (d *client) runOps(ops []op) {
	for _, o := range ops {
		d.do(o)
	}
}

// timedIDs returns the indices of the non-warm-up, error-free ops of one
// kind: the samples the statistics use.
func (d *client) timedIDs(kind opKind) []int {
	var ids []int
	for i, r := range d.recs {
		if r.kind == kind && !r.warm && r.err == nil {
			ids = append(ids, i)
		}
	}
	return ids
}

func (d *client) timed(kind opKind) []record {
	var out []record
	for _, i := range d.timedIDs(kind) {
		out = append(out, d.recs[i])
	}
	return out
}

// distTolerance absorbs last-bit differences between shortest paths of
// equal length found in different orders.
const distTolerance = 1e-9

func sameDist(got, want map[graph.VertexID]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d distances, oracle has %d", len(got), len(want))
	}
	for v, w := range want {
		g, ok := got[v]
		if !ok {
			return fmt.Errorf("vertex %d missing", v)
		}
		if math.IsInf(w, 1) && math.IsInf(g, 1) {
			continue
		}
		if math.IsNaN(g) || math.Abs(g-w) > distTolerance {
			return fmt.Errorf("dist(%d) = %v, oracle %v", v, g, w)
		}
	}
	return nil
}

func sameComps(got, want map[graph.VertexID]graph.VertexID) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d labels, oracle has %d", len(got), len(want))
	}
	for v, w := range want {
		if g, ok := got[v]; !ok || g != w {
			return fmt.Errorf("comp(%d) = %d, oracle %d", v, g, w)
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer; summing it over entries gives an
// order-independent fingerprint of a map.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func digestDist(m map[graph.VertexID]float64) uint64 {
	var h uint64
	for v, d := range m {
		h += mix64(uint64(v)*0x9e3779b97f4a7c15 ^ math.Float64bits(d))
	}
	return h
}

func digestComps(m map[graph.VertexID]graph.VertexID) uint64 {
	var h uint64
	for v, c := range m {
		h += mix64(uint64(v)*0x9e3779b97f4a7c15 ^ mix64(uint64(c)))
	}
	return h
}
