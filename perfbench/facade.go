package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"grape"
	"grape/internal/core"
	"grape/internal/graph"
	"grape/internal/metrics"
)

// target is a session the closed-loop client drives: the facade session in
// untraced runs, the wrapper-instrumented session in the traced phase. The
// op argument identifies the operation for span bookkeeping.
type target interface {
	// query answers the workload's query; CC ignores src.
	query(op int, src graph.VertexID) (any, *metrics.Stats, error)
	// update applies one batch and returns once the views are fresh.
	update(op int, batch []graph.Update) (*core.UpdateStats, error)
	// materialize registers the workload's views (in-process workloads do
	// this between their query and update phases).
	materialize(op int) error
	// views returns the current answers of the materialized views; a view
	// the workload does not keep is nil.
	views() (map[graph.VertexID]float64, map[graph.VertexID]graph.VertexID, error)
	close() error
}

// viewKinds reports which views a workload maintains: tcp-views keeps both,
// the in-process workloads keep the view of the query they ask.
func (w spec) viewKinds() (sssp, cc bool) {
	if w.procs > 0 {
		return true, true
	}
	return w.query == "sssp", w.query == "cc"
}

// facadeTarget drives the engine only through the public grape package,
// exactly as a user does.
type facadeTarget struct {
	w          spec
	viewSource graph.VertexID
	s          *grape.Session
	sssp       *grape.SSSPView
	cc         *grape.CCView
	workers    *workerGroup
}

// workerGroup runs the worker-process loops of a loopback cluster inside
// this process and waits for them to exit.
type workerGroup struct {
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

func newWorkerGroup() (*workerGroup, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	return &workerGroup{cancel: cancel}, ctx
}

func (g *workerGroup) start(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil && !errors.Is(err, context.Canceled) {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}()
}

// stop cancels the loops that are still running (a clean session Close has
// already ended them) and waits for all of them.
func (g *workerGroup) stop() error {
	g.cancel()
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return errors.Join(g.errs...)
}

// openFacade brings a workload's session up from the generated graph:
// partition, cluster bring-up and fragment shipping, and on tcp-views the
// view materialization. debug serves the session's /metrics endpoint.
func openFacade(w spec, g *graph.Graph, in inputs, debug bool) (*facadeTarget, error) {
	strat, ok := grape.PartitionStrategy(w.strategy)
	if !ok {
		return nil, fmt.Errorf("unknown partition strategy %q", w.strategy)
	}
	opts := grape.Options{Workers: fragments, Strategy: strat, Parallelism: w.parallelism}
	if debug {
		opts.DebugListen = "127.0.0.1:0"
	}
	t := &facadeTarget{w: w, viewSource: in.viewSource}
	if w.procs > 0 {
		var ctx context.Context
		t.workers, ctx = newWorkerGroup()
		opts.Distributed = &grape.Distributed{
			Listen:      "127.0.0.1:0",
			WorkerProcs: w.procs,
			OnListen: func(addr string) {
				for i := 0; i < w.procs; i++ {
					t.workers.start(func() error {
						return grape.ServeWorkerCtx(ctx, addr, grape.WorkerOptions{})
					})
				}
			},
		}
	}
	s, err := grape.NewSession(g, opts)
	if err != nil {
		if t.workers != nil {
			t.workers.stop()
		}
		return nil, fmt.Errorf("open session: %w", err)
	}
	t.s = s
	if w.procs > 0 {
		if err := t.materialize(0); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

func (t *facadeTarget) query(_ int, src graph.VertexID) (any, *metrics.Stats, error) {
	if t.w.query == "cc" {
		return t.s.CC()
	}
	return t.s.SSSP(src)
}

func (t *facadeTarget) update(_ int, batch []graph.Update) (*core.UpdateStats, error) {
	return t.s.ApplyUpdates(batch)
}

func (t *facadeTarget) materialize(int) error {
	wantSSSP, wantCC := t.w.viewKinds()
	var err error
	if wantSSSP {
		if t.sssp, err = t.s.MaterializeSSSP(t.viewSource); err != nil {
			return fmt.Errorf("materialize SSSP view: %w", err)
		}
	}
	if wantCC {
		if t.cc, err = t.s.MaterializeCC(); err != nil {
			return fmt.Errorf("materialize CC view: %w", err)
		}
	}
	return nil
}

func (t *facadeTarget) views() (dist map[graph.VertexID]float64, comps map[graph.VertexID]graph.VertexID, err error) {
	if t.sssp != nil {
		if dist, err = t.sssp.Distances(); err != nil {
			return nil, nil, err
		}
	}
	if t.cc != nil {
		if comps, err = t.cc.Components(); err != nil {
			return nil, nil, err
		}
	}
	return dist, comps, nil
}

func (t *facadeTarget) close() error {
	err := t.s.Close()
	if t.workers != nil {
		err = errors.Join(err, t.workers.stop())
	}
	return err
}
