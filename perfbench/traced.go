package main

import (
	"errors"
	"fmt"
	"time"

	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/metrics"
	"grape/internal/mpi"
	grapenet "grape/internal/mpi/net"
	"grape/internal/obs"
	"grape/internal/partition"
	"grape/internal/pie"
)

// The traced session is assembled from the same internal constructors the
// grape facade calls (partition.Partition, grapenet.Listen/Serve,
// core.NewSessionPartitioned/NewSessionRemote), with span-recording
// wrappers at each layer boundary: the PIE program, the coordinator's
// RemotePeers and the workers' grapenet.Handler. The engine itself is
// untouched; the wrappers only time calls into it.

// fullProgram is the capability set the program wrapper forwards. SSSP and
// CC have all of it; a wrapper that dropped one would silently change what
// the engine runs (no ParallelCapable: sequential sweeps; no DeltaProgram:
// views recompute instead of maintaining).
type fullProgram interface {
	core.RemoteProgram
	core.DeltaProgram
	core.AsyncCapable
	core.ParallelCapable
}

// tracedProgram forwards every call to the inner program and records PEval,
// IncEval, Assemble and EvalDelta as pie spans, per fragment.
type tracedProgram struct {
	inner fullProgram
	rec   *recorder
}

// wrapProgram wraps p when it has the full capability set; other programs
// (which no workload runs) pass through untraced.
func wrapProgram(p core.Program, rec *recorder) core.Program {
	fp, ok := p.(fullProgram)
	if !ok {
		return p
	}
	return tracedProgram{inner: fp, rec: rec}
}

// sameCapabilities reports an error when wrapped does not declare exactly
// the optional engine interfaces inner declares.
func sameCapabilities(inner, wrapped core.Program) error {
	has := func(p core.Program) [5]bool {
		_, delta := p.(core.DeltaProgram)
		_, kv := p.(core.KeyValueProgram)
		return [5]bool{core.SupportsRemote(p), core.SupportsAsync(p), core.SupportsParallel(p), delta, kv}
	}
	if a, b := has(inner), has(wrapped); a != b {
		return fmt.Errorf("wrapper of %s changes the program's capabilities "+
			"(remote, async, parallel, delta, key-value): inner %v, wrapped %v", inner.Name(), a, b)
	}
	return nil
}

func (p tracedProgram) Name() string { return p.inner.Name() }

func (p tracedProgram) PEval(ctx *core.Context) error {
	id := p.rec.beginProgram("pie.PEval", ctx.Worker)
	defer p.rec.end(id)
	return p.inner.PEval(ctx)
}

func (p tracedProgram) IncEval(ctx *core.Context, msgs []mpi.Update) error {
	id := p.rec.beginProgram("pie.IncEval", ctx.Worker)
	defer p.rec.end(id)
	return p.inner.IncEval(ctx, msgs)
}

func (p tracedProgram) Assemble(q core.Query, ctxs []*core.Context) (any, error) {
	id := p.rec.beginProgram("pie.Assemble", -1)
	defer p.rec.end(id)
	return p.inner.Assemble(q, ctxs)
}

func (p tracedProgram) EvalDelta(ctx *core.Context, d core.FragmentDelta) (bool, error) {
	id := p.rec.beginProgram("pie.EvalDelta", ctx.Worker)
	defer p.rec.end(id)
	return p.inner.EvalDelta(ctx, d)
}

func (p tracedProgram) Aggregate(existing, incoming mpi.Update) mpi.Update {
	return p.inner.Aggregate(existing, incoming)
}

func (p tracedProgram) EncodeQuery(q core.Query) ([]byte, error) { return p.inner.EncodeQuery(q) }
func (p tracedProgram) DecodeQuery(data []byte) (core.Query, error) {
	return p.inner.DecodeQuery(data)
}
func (p tracedProgram) EncodePartial(ctx *core.Context) ([]byte, error) {
	return p.inner.EncodePartial(ctx)
}
func (p tracedProgram) DecodePartial(ctx *core.Context, data []byte) error {
	return p.inner.DecodePartial(ctx, data)
}
func (p tracedProgram) AsyncSafe() bool    { return p.inner.AsyncSafe() }
func (p tracedProgram) ParallelSafe() bool { return p.inner.ParallelSafe() }

// remotePeer is what the coordinator needs of a TCP peer: evaluation calls
// plus the view and checkpoint extensions the engine asserts for.
type remotePeer interface {
	core.RemoteViewPeer
	core.RemoteCheckpointPeer
}

// tracedPeer times each coordinator-side call to one remote fragment.
type tracedPeer struct {
	inner remotePeer
	rank  int
	rec   *recorder
}

func (p *tracedPeer) PEval(query uint64, epoch int64, prog string, queryBytes []byte, superstep int,
	disableIncEval, disableGrouping bool) ([]mpi.Envelope, error) {
	id := p.rec.beginPeer("net.PEval", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.PEval(query, epoch, prog, queryBytes, superstep, disableIncEval, disableGrouping)
}

func (p *tracedPeer) IncEval(query uint64, superstep int, envs []mpi.Envelope) ([]mpi.Envelope, error) {
	id := p.rec.beginPeer("net.IncEval", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.IncEval(query, superstep, envs)
}

func (p *tracedPeer) Fetch(query uint64) ([]byte, error) {
	id := p.rec.beginPeer("net.Fetch", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.Fetch(query)
}

func (p *tracedPeer) End(query uint64) error {
	id := p.rec.beginPeer("net.End", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.End(query)
}

func (p *tracedPeer) Materialize(query uint64) error {
	id := p.rec.beginPeer("net.Materialize", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.Materialize(query)
}

func (p *tracedPeer) EvalDelta(query uint64, superstep int, ops []graph.Update,
	newInBorder []graph.VertexID) (bool, []mpi.Envelope, error) {
	id := p.rec.beginPeer("net.EvalDelta", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.EvalDelta(query, superstep, ops, newInBorder)
}

func (p *tracedPeer) Checkpoint(query uint64) ([]byte, error) {
	id := p.rec.beginPeer("net.Checkpoint", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.Checkpoint(query)
}

func (p *tracedPeer) Restore(query uint64, epoch int64, prog string, queryBytes, state []byte) error {
	id := p.rec.beginPeer("net.Restore", p.rank, query)
	defer p.rec.endPeer(id, p.rank, query)
	return p.inner.Restore(query, epoch, prog, queryBytes, state)
}

// tracedHandler times each worker-side call, linked to the coordinator-side
// call it serves by (rank, engine query id).
type tracedHandler struct {
	inner grapenet.Handler
	rec   *recorder
}

func (h tracedHandler) Setup(frags []*partition.Fragment, gp *partition.FragGraph) error {
	return h.inner.Setup(frags, gp)
}

func (h tracedHandler) PEval(rank int, query uint64, epoch int64, prog string, queryBytes []byte, superstep int,
	disableIncEval, disableGrouping bool) ([]mpi.Envelope, error) {
	id := h.rec.beginHandler("worker.PEval", rank, query, true)
	defer h.rec.endHandler(id, rank, true)
	return h.inner.PEval(rank, query, epoch, prog, queryBytes, superstep, disableIncEval, disableGrouping)
}

func (h tracedHandler) IncEval(rank int, query uint64, superstep int, envs []mpi.Envelope) ([]mpi.Envelope, error) {
	id := h.rec.beginHandler("worker.IncEval", rank, query, true)
	defer h.rec.endHandler(id, rank, true)
	return h.inner.IncEval(rank, query, superstep, envs)
}

func (h tracedHandler) Fetch(rank int, query uint64) ([]byte, error) {
	id := h.rec.beginHandler("worker.Fetch", rank, query, false)
	defer h.rec.endHandler(id, rank, false)
	return h.inner.Fetch(rank, query)
}

func (h tracedHandler) End(rank int, query uint64) error {
	id := h.rec.beginHandler("worker.End", rank, query, false)
	defer h.rec.endHandler(id, rank, false)
	return h.inner.End(rank, query)
}

func (h tracedHandler) ApplyUpdate(epoch, floor int64, gp *partition.FragGraph, frags []*partition.Fragment) error {
	id := h.rec.beginHandler("worker.ApplyUpdate", -1, 0, false)
	defer h.rec.endHandler(id, -1, false)
	return h.inner.ApplyUpdate(epoch, floor, gp, frags)
}

func (h tracedHandler) Materialize(rank int, query uint64) error {
	id := h.rec.beginHandler("worker.Materialize", rank, query, false)
	defer h.rec.endHandler(id, rank, false)
	return h.inner.Materialize(rank, query)
}

func (h tracedHandler) EvalDelta(rank int, query uint64, superstep int, ops []graph.Update,
	newInBorder []graph.VertexID) (bool, []mpi.Envelope, error) {
	id := h.rec.beginHandler("worker.EvalDelta", rank, query, true)
	defer h.rec.endHandler(id, rank, true)
	return h.inner.EvalDelta(rank, query, superstep, ops, newInBorder)
}

func (h tracedHandler) Checkpoint(rank int, query uint64) ([]byte, error) {
	id := h.rec.beginHandler("worker.Checkpoint", rank, query, false)
	defer h.rec.endHandler(id, rank, false)
	return h.inner.Checkpoint(rank, query)
}

func (h tracedHandler) Restore(rank int, query uint64, epoch int64, prog string, queryBytes, state []byte) error {
	id := h.rec.beginHandler("worker.Restore", rank, query, false)
	defer h.rec.endHandler(id, rank, false)
	return h.inner.Restore(rank, query, epoch, prog, queryBytes, state)
}

func (h tracedHandler) Adopt(epoch int64, gp *partition.FragGraph, frags []*partition.Fragment) error {
	return h.inner.Adopt(epoch, gp, frags)
}

func (h tracedHandler) ReleaseFragment(rank int) error { return h.inner.ReleaseFragment(rank) }

// tracedTarget is the instrumented counterpart of facadeTarget.
type tracedTarget struct {
	w          spec
	viewSource graph.VertexID
	rec        *recorder
	s          *core.Session
	// wrap instruments a program; prog is the query program it wrapped.
	wrap     func(core.Program, *recorder) core.Program
	prog     core.Program
	sssp, cc *core.View
	workers  *workerGroup
	// partitionTime and borders describe the partition step of set-up.
	partitionTime time.Duration
	borders       int
}

// queryProgram returns the engine program of a workload's query.
func queryProgram(query string) core.Program {
	if query == "cc" {
		return pie.CC{}
	}
	return pie.SSSP{}
}

func openTraced(w spec, g *graph.Graph, in inputs, rec *recorder) (*tracedTarget, error) {
	strat, ok := partition.ByName(w.strategy)
	if !ok {
		return nil, fmt.Errorf("unknown partition strategy %q", w.strategy)
	}
	inner := queryProgram(w.query)
	t := &tracedTarget{w: w, viewSource: in.viewSource, rec: rec, wrap: wrapProgram}
	t.prog = t.wrap(inner, rec)
	if err := sameCapabilities(inner, t.prog); err != nil {
		return nil, err
	}
	start := time.Now()
	p := partition.Partition(g, fragments, strat)
	t.partitionTime = time.Since(start)
	t.borders = len(p.GP.BorderVertices())

	// The same engine options the facade derives from grape.Options.
	opts := core.Options{Workers: fragments, Strategy: strat, Parallelism: w.parallelism}
	var err error
	if w.procs == 0 {
		t.s, err = core.NewSessionPartitioned(p, opts)
	} else {
		t.s, err = t.openRemote(p, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("open traced session: %w", err)
	}
	if w.procs > 0 {
		if err := t.materialize(0); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// openRemote brings up the loopback cluster the way the facade does, with
// the workers' handler and program resolver and the coordinator's peers
// wrapped.
func (t *tracedTarget) openRemote(p *partition.Partitioned, opts core.Options) (*core.Session, error) {
	ln, err := grapenet.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.startWorkers(ln.Addr())
	cl, err := ln.Serve(p, t.w.procs, 0)
	if err != nil {
		return nil, errors.Join(err, t.workers.stop())
	}
	peers := make([]core.RemotePeer, len(p.Fragments))
	for i := range peers {
		peers[i] = &tracedPeer{inner: cl.Peer(i), rank: i, rec: t.rec}
	}
	s, err := core.NewSessionRemote(p, opts, cl, peers)
	if err != nil {
		cl.Close()
		return nil, errors.Join(err, t.workers.stop())
	}
	return s, nil
}

func (t *tracedTarget) startWorkers(addr string) {
	workers, ctx := newWorkerGroup()
	t.workers = workers
	resolve := func(name string) (core.Program, bool) {
		p, ok := pie.ByName(name)
		if !ok {
			return nil, false
		}
		return wrapProgram(p, t.rec), true
	}
	for i := 0; i < t.w.procs; i++ {
		workers.start(func() error {
			host := core.NewWorkerHost(resolve)
			host.SetParallelism(0)
			return grapenet.RunWorkerCtx(ctx, addr, tracedHandler{inner: host, rec: t.rec},
				grapenet.WorkerOptions{Metrics: obs.NewRegistry()})
		})
	}
}

func (t *tracedTarget) query(op int, src graph.VertexID) (any, *metrics.Stats, error) {
	var q core.Query = src
	if t.w.query == "cc" {
		q = nil
	}
	t.rec.beginOp(op, "core.query")
	res, err := t.s.RunMode(q, t.prog, core.ModeBSP)
	t.rec.endOp()
	if err != nil {
		return nil, nil, err
	}
	return res.Output, res.Stats, nil
}

func (t *tracedTarget) update(op int, batch []graph.Update) (*core.UpdateStats, error) {
	t.rec.beginOp(op, "core.update")
	defer t.rec.endOp()
	return t.s.ApplyUpdates(batch)
}

func (t *tracedTarget) materialize(op int) error {
	wantSSSP, wantCC := t.w.viewKinds()
	t.rec.beginOp(op, "core.materialize")
	defer t.rec.endOp()
	var err error
	if wantSSSP {
		if t.sssp, err = t.s.Materialize(t.viewSource, t.wrap(pie.SSSP{}, t.rec)); err != nil {
			return fmt.Errorf("materialize SSSP view: %w", err)
		}
	}
	if wantCC {
		if t.cc, err = t.s.Materialize(nil, t.wrap(pie.CC{}, t.rec)); err != nil {
			return fmt.Errorf("materialize CC view: %w", err)
		}
	}
	return nil
}

func (t *tracedTarget) views() (dist map[graph.VertexID]float64, comps map[graph.VertexID]graph.VertexID, err error) {
	if t.sssp != nil {
		out, err := t.sssp.Result()
		if err != nil {
			return nil, nil, err
		}
		dist = out.(map[graph.VertexID]float64)
	}
	if t.cc != nil {
		out, err := t.cc.Result()
		if err != nil {
			return nil, nil, err
		}
		comps = out.(map[graph.VertexID]graph.VertexID)
	}
	return dist, comps, nil
}

func (t *tracedTarget) close() error {
	err := t.s.Close()
	if t.workers != nil {
		err = errors.Join(err, t.workers.stop())
	}
	return err
}
