package core

import (
	"fmt"
	"sync"

	"grape/internal/metrics"
	"grape/internal/partition"
)

// View is a materialized query result kept fresh across graph updates: the
// answer-maintenance counterpart of a query run. Materialize evaluates the
// program once and retains the per-fragment contexts (each holding the
// program's partial result Q(Fi)); after every ApplyUpdates batch the engine
// refreshes the view, preferring an incremental maintenance round — the
// program's EvalDelta seeds its bounded IncEval over the fragments whose AFF
// set is non-empty, then the usual fixpoint iteration re-converges the
// border values — and falling back to a full PEval re-run when the program
// has no incremental form for the change (or none at all).
//
// On a distributed session the retained contexts live in the worker
// processes: Materialize pins the converged query state there (remoteQuery
// names it), EvalDelta and the IncEval fixpoint run remotely over it, and
// only the refreshed partial results cross the wire back for Assemble. The
// coordinator-side ctxs hold the decoded partials.
//
// Result is safe to call from any goroutine; it returns the answer as of the
// last installed epoch.
type View struct {
	session *Session
	prog    Program
	query   Query

	mu     sync.RWMutex
	ctxs   []*Context
	result any
	err    error
	stats  ViewStats
	closed bool
	// remoteQuery names the per-fragment view state retained on the worker
	// processes of a distributed session (0 on local sessions). A full
	// recompute replaces it with the new run's query id.
	remoteQuery uint64
	// stale is set when a maintenance round failed: the retained contexts
	// may have missed a batch, so the next round must recompute from scratch
	// instead of trusting them for an incremental round.
	stale bool
}

// ViewStats describes how a view has been maintained so far.
type ViewStats struct {
	// Epoch is the session epoch the view's result corresponds to.
	Epoch int64
	// Maintenances counts maintenance rounds, split into incremental ones
	// (EvalDelta + IncEval fixpoint) and full PEval recomputes.
	Maintenances int64
	Incremental  int64
	Recomputed   int64
}

// Materialize evaluates prog once over the session's resident fragments and
// registers the result as a live view: after every ApplyUpdates batch the
// view's answer is refreshed before ApplyUpdates returns. Close the view to
// stop maintaining it.
//
// On a distributed session the converged per-fragment state stays resident
// in the worker processes and is maintained there; this requires the
// transport to ship update deltas and the peers to host view state, which
// the TCP transport does. Transports without those capabilities return
// ErrDistributedUnsupported.
func (s *Session) Materialize(q Query, prog Program) (*View, error) {
	if s.Distributed() {
		if _, ok := s.cluster.(RemoteUpdateTransport); !ok {
			return nil, fmt.Errorf("%w: transport cannot ship update deltas", ErrDistributedUnsupported)
		}
		for i, pe := range s.remotes {
			if _, ok := pe.(RemoteViewPeer); !ok {
				return nil, fmt.Errorf("%w: peer for fragment %d cannot host view state", ErrDistributedUnsupported, i)
			}
		}
	}
	s.updateMu.Lock()
	defer s.updateMu.Unlock()

	workers, epoch, err := s.begin()
	if err != nil {
		return nil, err
	}
	defer s.done(epoch)
	s.queries.Add(1)

	co := &coordinator{opts: s.opts, cluster: s.cluster, workers: workers,
		remotes: s.remotes, epoch: epoch, retain: s.Distributed()}
	res, err := co.run(q, prog)
	if err != nil {
		return nil, err
	}
	v := &View{session: s, prog: prog, query: q, ctxs: res.Contexts, result: res.Output}
	if s.Distributed() {
		v.remoteQuery = res.queryID
		if err := materializeRemote(s.remotes, v.remoteQuery); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	v.stats.Epoch = s.epoch
	s.views[v] = struct{}{}
	s.mu.Unlock()
	return v, nil
}

// materializeRemote promotes a converged query's retained state into view
// state on every peer, releasing it everywhere if any peer fails.
func materializeRemote(remotes []RemotePeer, query uint64) error {
	for i, pe := range remotes {
		if err := pe.(RemoteViewPeer).Materialize(query); err != nil {
			for _, pe2 := range remotes {
				_ = pe2.End(query)
			}
			return fmt.Errorf("core: retaining view state on fragment %d: %w", i, err)
		}
	}
	return nil
}

// Name returns the program name the view materializes.
func (v *View) Name() string { return v.prog.Name() }

// Result returns the view's current answer and the maintenance error of the
// last batch, if any. The answer always corresponds to a complete epoch.
func (v *View) Result() (any, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.result, v.err
}

// Stats returns the view's maintenance counters.
func (v *View) Stats() ViewStats {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.stats
}

// Close unregisters the view from its session; the result remains readable
// but is no longer maintained. On a distributed session the worker-side view
// state is released. Closing twice is a no-op.
func (v *View) Close() error {
	v.mu.Lock()
	already := v.closed
	v.closed = true
	remoteQuery := v.remoteQuery
	v.remoteQuery = 0
	v.mu.Unlock()
	if already {
		return nil
	}
	s := v.session
	s.mu.Lock()
	delete(s.views, v)
	s.mu.Unlock()
	if remoteQuery != 0 {
		for _, pe := range s.remotes {
			_ = pe.End(remoteQuery)
		}
	}
	return nil
}

// markStale invalidates the view's retained incremental state: recovery and
// rebalancing call it after moving fragments, because the worker-side view
// tasks on a moved rank are gone (dead host) or dropped (released host). The
// next maintenance round recomputes from scratch instead of trusting them.
func (v *View) markStale() {
	v.mu.Lock()
	v.stale = true
	v.mu.Unlock()
}

// maintain refreshes the view for a freshly installed epoch. It is called by
// ApplyUpdates with updateMu held, so maintenance rounds are serialized. It
// reports whether the round was incremental.
func (v *View) maintain(part *partition.Partitioned, workers []*worker, res *partition.UpdateResult, epoch int64) (incremental bool, err error) {
	defer func() {
		v.mu.Lock()
		v.stats.Epoch = epoch
		v.stats.Maintenances++
		if incremental {
			v.stats.Incremental++
		} else {
			v.stats.Recomputed++
		}
		v.err = err
		v.stale = err != nil
		v.mu.Unlock()
	}()

	v.mu.RLock()
	stale := v.stale
	remoteQuery := v.remoteQuery
	v.mu.RUnlock()
	remote := v.session.Distributed()

	co := &coordinator{opts: v.session.opts, cluster: v.session.cluster, workers: workers,
		remotes: v.session.remotes, epoch: epoch}
	if dp, ok := v.prog.(DeltaProgram); ok && !stale {
		// Rebind the retained contexts to the new epoch's fragments. The
		// program state in ctx.State carries over: that is the whole point.
		// (On a distributed session the worker-side contexts were rebound
		// when the epoch was installed; these coordinator-side ones hold the
		// partial results Assemble reads.)
		for i, ctx := range v.ctxs {
			ctx.rebind(part.Fragments[i], part.GP)
		}
		out, incErr := co.maintainIncremental(dp, v.ctxs, v.query, res, remoteQuery)
		switch incErr {
		case nil:
			v.mu.Lock()
			v.result = out
			v.mu.Unlock()
			return true, nil
		case errNotAbsorbable:
			// fall through to the full recompute
		default:
			// The incremental round failed midway; the contexts may be
			// inconsistent, so recompute from scratch rather than surfacing
			// a broken answer.
		}
	}

	co.retain = remote
	full, runErr := co.run(v.query, v.prog)
	if runErr != nil {
		return false, fmt.Errorf("core: view %s full recompute: %w", v.prog.Name(), runErr)
	}
	if remote {
		// The fresh run's retained state becomes the view state; the previous
		// generation is released.
		if err := materializeRemote(v.session.remotes, full.queryID); err != nil {
			return false, err
		}
	}
	v.mu.Lock()
	if v.closed {
		// The view was closed while this round ran (Close already released
		// the previous generation): drop the fresh state instead of adopting
		// it, or nothing would ever End it.
		v.mu.Unlock()
		if remote {
			for _, pe := range v.session.remotes {
				_ = pe.End(full.queryID)
			}
		}
		return false, nil
	}
	v.ctxs = full.Contexts
	v.result = full.Output
	if remote {
		v.remoteQuery = full.queryID
	}
	v.mu.Unlock()
	if remote && remoteQuery != 0 {
		for _, pe := range v.session.remotes {
			_ = pe.End(remoteQuery)
		}
	}
	return false, nil
}

// maintainIncremental runs one maintenance round: EvalDelta on every
// fragment with a non-empty AFF set (superstep 1 of the round), then the
// IncEval fixpoint iteration, then Assemble. It returns errNotAbsorbable if
// any fragment's EvalDelta declines the change. Maintenance always runs on
// the BSP plane — a round mutates the view's retained contexts, and the
// deterministic superstep schedule is what keeps a failed round diagnosable.
//
// With remote peers, remoteQuery names the worker-side view state: EvalDelta
// and IncEval run there, and the refreshed partial results are pulled back
// into ctxs before Assemble.
func (c *coordinator) maintainIncremental(dp DeltaProgram, ctxs []*Context, q Query,
	res *partition.UpdateResult, remoteQuery uint64) (any, error) {
	m := len(c.workers)
	stats := &metrics.Stats{Engine: "GRAPE", Query: dp.Name() + "+maintain", Workers: m}
	stats.SetNoMetrics(c.opts.NoMetrics)
	timer := metrics.StartTimer()
	defer func() { stats.Elapsed = timer.Stop(); stats.FlushObs() }()
	comm := c.cluster.NewComm(stats)
	if !c.opts.DisableGrouping {
		comm.EnableCombining(tagUpdates, dp.Aggregate)
	}

	tasks := make([]*task, m)
	for i, w := range c.workers {
		tasks[i] = w.taskWith(ctxs[i], dp, comm, c.opts)
		if c.remotes != nil {
			tasks[i].remote = c.remotes[i]
			tasks[i].queryID = remoteQuery
			tasks[i].epoch = c.epoch
		}
	}

	// Maintenance rounds have no failure injection: injected failures model
	// query-superstep crashes and are scoped to query runs.
	runStep := func(superstep int, body func(w int) error) error {
		_, err := c.cluster.BarrierFor(func(int) bool { return true }, 0, func(w int) error {
			return safeCall(func() error { return body(w) })
		})
		return err
	}

	// Superstep 1: EvalDelta over the affected fragments only.
	superstep := 1
	stats.BeginSuperstep()
	var mu sync.Mutex
	absorbed := true
	err := runStep(superstep, func(w int) error {
		ch := res.Changes[w]
		if ch == nil {
			return nil // AFF is empty here: this fragment only reacts to messages
		}
		t := tasks[w]
		if t.remote != nil {
			ok, envs, derr := t.remote.(RemoteViewPeer).EvalDelta(t.queryID, superstep, ch.Ops, ch.NewInBorder)
			if derr != nil {
				return fmt.Errorf("core: remote EvalDelta on fragment %d: %w", w, derr)
			}
			if !ok {
				mu.Lock()
				absorbed = false
				mu.Unlock()
				return nil
			}
			t.inject(envs)
			return nil
		}
		t.ctx.Superstep = superstep
		ok, derr := dp.EvalDelta(t.ctx, FragmentDelta{Ops: ch.Ops, OldGraph: ch.OldGraph, NewInBorder: ch.NewInBorder})
		if derr != nil {
			return fmt.Errorf("core: EvalDelta on fragment %d: %w", w, derr)
		}
		if !ok {
			mu.Lock()
			absorbed = false
			mu.Unlock()
			return nil
		}
		t.route()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !absorbed {
		return nil, errNotAbsorbable
	}

	resTrack := &Result{Stats: stats, Contexts: ctxs}
	bsp := &bspRunner{opts: c.opts, cluster: c.cluster}
	if err := bsp.iterate(tasks, comm, stats, resTrack, runStep, superstep); err != nil {
		return nil, err
	}
	if c.remotes != nil {
		rp, ok := dp.(RemoteProgram)
		if !ok {
			return nil, fmt.Errorf("core: %s has no wire codecs for view maintenance", dp.Name())
		}
		if err := c.fetchPartials(tasks, rp, remoteQuery); err != nil {
			return nil, err
		}
	}
	out, err := dp.Assemble(q, ctxs)
	if err != nil {
		return nil, fmt.Errorf("core: Assemble after maintenance: %w", err)
	}
	return out, nil
}
