package core

import (
	"fmt"
	"hash/fnv"
	"sync"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/obs"
	"grape/internal/par"
	"grape/internal/partition"
)

// Message tags used on the transport.
const (
	tagUpdates = "updates"
	tagKV      = "kv"
	tagRaw     = "raw"
)

// worker is the long-lived half of a session: it holds one fragment Fi (and
// the fragmentation graph GP) resident across queries. All query-specific
// state — the context, the program, the communicator — lives in a task, so
// any number of queries can execute over the same worker concurrently.
type worker struct {
	rank int
	frag *partition.Fragment
	gp   *partition.FragGraph
}

func newWorker(rank int, frag *partition.Fragment, gp *partition.FragGraph) *worker {
	return &worker{rank: rank, frag: frag, gp: gp}
}

// sender is where a task routes its outgoing designated messages. On the
// coordinator it is the query-scoped *mpi.Comm; on a remote worker host it is
// a collector that accumulates the envelopes so the transport can carry them
// back to the coordinator's mailboxes.
type sender interface {
	Send(from, to int, tag string, payload []byte)
}

// task is one worker's execution state for one query: a fresh context over
// the resident (immutable) fragment, the PIE program, and the query-scoped
// communicator the coordinator created for this run.
//
// When remote is non-nil the fragment is hosted by another process: peval and
// incremental forward the call through the transport instead of computing
// locally, and inject the envelopes the remote evaluation produced into the
// coordinator's communicator — so both runner planes (barrier delivery,
// async visibility and sent/received accounting) behave exactly as they do
// for in-process fragments.
type task struct {
	worker *worker
	ctx    *Context
	comm   sender
	prog   Program
	kvProg KeyValueProgram // non-nil iff prog implements KeyValueProgram
	opts   Options
	m      int

	remote     RemotePeer // non-nil for fragments hosted in another process
	queryID    uint64
	epoch      int64 // session epoch the query reads (names the remote residency)
	progName   string
	queryBytes []byte
	trace      *obs.Trace // span recorder for remote call round trips; nil-safe
}

// newTask creates the per-query execution state for this worker.
func (w *worker) newTask(q Query, prog Program, comm sender, opts Options) *task {
	return w.taskWith(newContext(w.rank, w.frag, w.gp, q), prog, comm, opts)
}

// taskWith wraps an existing context — the persistent state of a
// materialized view — in a fresh task for one maintenance round. The
// context's Fragment and GP must already point at the worker's current
// epoch.
func (w *worker) taskWith(ctx *Context, prog Program, comm sender, opts Options) *task {
	kvProg, _ := prog.(KeyValueProgram)
	if opts.Parallelism > 1 && SupportsParallel(prog) {
		ctx.pool = par.New(opts.Parallelism)
	}
	return &task{
		worker: w,
		ctx:    ctx,
		comm:   comm,
		prog:   prog,
		kvProg: kvProg,
		opts:   opts,
		m:      w.gp.NumFragments(),
	}
}

// inject replays envelopes produced by a remote evaluation into the
// coordinator's communicator (a remote task's sender is always the
// query-scoped *mpi.Comm), preserving their original sender rank so
// metering and routing are indistinguishable from an in-process evaluation.
func (t *task) inject(envs []mpi.Envelope) {
	for _, e := range envs {
		t.comm.Send(e.From, e.To, e.Tag, e.Payload)
	}
}

// peval runs the partial-evaluation superstep: PEval over the fragment, then
// routing of the changed update parameters.
func (t *task) peval(superstep int) error {
	if t.remote != nil {
		endSpan := t.trace.Span("rpc:peval", t.worker.rank)
		envs, err := t.remote.PEval(t.queryID, t.epoch, t.progName, t.queryBytes, superstep,
			t.opts.DisableIncEval, t.opts.DisableGrouping)
		endSpan()
		if err != nil {
			return fmt.Errorf("core: remote PEval on fragment %d: %w", t.worker.rank, err)
		}
		t.inject(envs)
		return nil
	}
	t.ctx.Superstep = superstep
	if err := t.prog.PEval(t.ctx); err != nil {
		return fmt.Errorf("core: PEval on fragment %d: %w", t.worker.rank, err)
	}
	t.route()
	return nil
}

// incremental runs one iterative superstep: decode the envelopes delivered to
// this worker, merge them under the program's aggregation policy, run IncEval
// (or PEval in the GRAPE_NI ablation) on the accepted changes, and route the
// resulting updates.
func (t *task) incremental(superstep int, envs []mpi.Envelope) error {
	if len(envs) == 0 {
		return nil // inactive worker this superstep
	}
	if t.remote != nil {
		endSpan := t.trace.Span("rpc:inceval", t.worker.rank)
		out, err := t.remote.IncEval(t.queryID, superstep, envs)
		endSpan()
		if err != nil {
			return fmt.Errorf("core: remote IncEval on fragment %d: %w", t.worker.rank, err)
		}
		t.inject(out)
		return nil
	}
	t.ctx.Superstep = superstep
	w := t.worker.rank
	var incoming []mpi.Update
	var kvs []mpi.KeyValue
	var raws []mpi.Update
	for _, env := range envs {
		switch env.Tag {
		case tagUpdates:
			ups, err := mpi.DecodeUpdates(env.Payload)
			if err != nil {
				return fmt.Errorf("core: fragment %d: %w", w, err)
			}
			incoming = append(incoming, ups...)
		case tagKV:
			pairs, err := mpi.DecodeKeyValues(env.Payload)
			if err != nil {
				return fmt.Errorf("core: fragment %d: %w", w, err)
			}
			kvs = append(kvs, pairs...)
		case tagRaw:
			raws = append(raws, mpi.Update{Vertex: RawMessageVertex, Key: int64(env.From), Data: env.Payload})
		default:
			return fmt.Errorf("core: fragment %d: unknown message tag %q", w, env.Tag)
		}
	}
	accepted := t.ctx.applyIncoming(incoming, t.prog.Aggregate)
	accepted = append(accepted, raws...)
	if len(accepted) > 0 {
		if t.opts.DisableIncEval {
			if err := t.prog.PEval(t.ctx); err != nil {
				return fmt.Errorf("core: PEval (NI mode) on fragment %d: %w", w, err)
			}
		} else if err := t.prog.IncEval(t.ctx, accepted); err != nil {
			return fmt.Errorf("core: IncEval on fragment %d: %w", w, err)
		}
	}
	if len(kvs) > 0 {
		if t.kvProg == nil {
			return fmt.Errorf("core: program %s received key-value messages but does not implement KeyValueProgram", t.prog.Name())
		}
		if err := t.kvProg.IncEvalKV(t.ctx, kvs); err != nil {
			return fmt.Errorf("core: IncEvalKV on fragment %d: %w", w, err)
		}
	}
	t.route()
	return nil
}

// route ships the task's dirty update parameters to every fragment that holds
// a copy of the variable, deducing destinations from GP exactly as
// Section 3.2(3) describes (each worker keeps a copy of GP and deduces
// destinations in parallel, avoiding a coordinator bottleneck).
func (t *task) route() {
	w := t.worker.rank
	if t.ctx.hasDirty() {
		sc := routePool.Get().(*routeScratch)
		t.routeUpdates(sc)
		routePool.Put(sc)
	}
	for _, kv := range t.ctx.takeKV() {
		dst := int(hashKey(kv.Key) % uint32(t.m))
		t.comm.Send(w, dst, tagKV, mpi.EncodeKeyValues([]mpi.KeyValue{kv}))
	}
	for _, raw := range t.ctx.takeRaw() {
		t.comm.Send(w, raw.dst, tagRaw, raw.data)
	}
}

// routeScratch is route's working memory: the dirty parameters, one batch
// per destination rank and a destinations buffer. It is pooled rather than
// kept on the task, so the only allocations of routing are the encoded
// payloads it sends, and long-lived view tasks hold no scratch between
// maintenance rounds.
type routeScratch struct {
	dirty   []mpi.Update
	batches [][]mpi.Update
	dests   []int
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

// routeUpdates fills the per-rank batches from the dirty parameters and sends
// one envelope per destination in ascending rank order. takeDirty emits in
// (vertex, key) order, so every batch is sorted too.
func (t *task) routeUpdates(sc *routeScratch) {
	w := t.worker.rank
	if len(sc.batches) < t.m {
		sc.batches = make([][]mpi.Update, t.m)
	}
	sc.dirty = t.ctx.takeDirty(sc.dirty[:0])
	for _, u := range sc.dirty {
		sc.dests = t.worker.gp.Destinations(sc.dests[:0], graph.VertexID(u.Vertex), w)
		for _, dst := range sc.dests {
			sc.batches[dst] = append(sc.batches[dst], u)
		}
	}
	for dst, batch := range sc.batches[:t.m] {
		if len(batch) == 0 {
			continue
		}
		if t.opts.DisableGrouping {
			for i := range batch {
				t.comm.Send(w, dst, tagUpdates, mpi.EncodeUpdates(batch[i:i+1]))
			}
		} else {
			t.comm.Send(w, dst, tagUpdates, mpi.EncodeUpdates(batch))
		}
		clear(batch) // drop payload references before the scratch is pooled
		sc.batches[dst] = batch[:0]
	}
	clear(sc.dirty)
}

func hashKey(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}
