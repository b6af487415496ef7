package core

// Distributed execution: the engine side of the multi-process transport.
//
// A distributed session keeps the coordinator's runner planes (bsp.go,
// async.go) and mailbox communicators unchanged and moves only the
// evaluation calls across the process boundary: for a fragment hosted
// remotely, task.peval/task.incremental forward the call through a
// RemotePeer, and the envelopes the remote PEval/IncEval produced are
// injected back into the query's communicator. The worker process runs a
// WorkerHost, which executes the exact same task code path over its resident
// fragments — one engine, two deployments.
//
// Programs opt into distribution by implementing RemoteProgram: the query
// and the per-fragment partial result must cross the wire, so the program
// supplies their codecs (the engine cannot serialize the opaque ctx.State).
//
// Dynamic graphs are distributed the same way. The coordinator routes each
// update batch with internal/partition (it keeps a resident replica of every
// fragment), ships the rebuilt fragments and the new fragmentation graph to
// the worker processes through a RemoteUpdateTransport, and the workers
// install them as a new epoch — retaining the previous epochs that in-flight
// queries still read (PEval carries the query's epoch, so snapshot
// consistency holds across processes exactly as it does in-process).
// Materialized views retain their per-fragment state on the workers: a
// maintenance round runs EvalDelta remotely on the fragments with a
// non-empty AFF set, iterates the ordinary remote IncEval fixpoint, and
// pulls the refreshed partial results back for Assemble.

import (
	"fmt"
	"sync"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// RemotePeer is the coordinator's handle to one fragment hosted in another
// process. The TCP transport's net.Peer implements it; tests use in-process
// fakes. Calls for one peer are issued sequentially by the runner planes
// (BSP barriers and the async per-fragment loop both serialize per rank),
// but different peers are called concurrently.
type RemotePeer interface {
	// PEval runs partial evaluation on the remote fragment, against the
	// worker's residency for the given epoch, and returns the designated
	// messages it routed.
	PEval(query uint64, epoch int64, prog string, queryBytes []byte, superstep int,
		disableIncEval, disableGrouping bool) ([]mpi.Envelope, error)
	// IncEval delivers envelopes to the remote fragment, runs incremental
	// evaluation and returns the designated messages it routed.
	IncEval(query uint64, superstep int, envs []mpi.Envelope) ([]mpi.Envelope, error)
	// Fetch returns the fragment's encoded partial result (RemoteProgram's
	// EncodePartial) once the fixpoint is reached.
	Fetch(query uint64) ([]byte, error)
	// End releases the remote per-query state.
	End(query uint64) error
}

// RemoteViewPeer is the optional extension a RemotePeer implements to host
// materialized-view state: Materialize pins a converged query's per-fragment
// contexts across epochs, and EvalDelta seeds an incremental maintenance
// round on them. The TCP transport's net.Peer implements it.
type RemoteViewPeer interface {
	RemotePeer
	// Materialize promotes the query's retained per-fragment state into view
	// state: it survives End-less coordinator runs and is rebound to each new
	// epoch the worker installs, until End releases it.
	Materialize(query uint64) error
	// EvalDelta runs the program's EvalDelta over the view's retained context
	// with the batch's changes to this fragment (ops plus newly mirrored
	// border vertices; the worker resolves the pre-batch graph itself). It
	// reports whether the change was absorbed and, if so, the designated
	// messages the seeding routed.
	EvalDelta(query uint64, superstep int, ops []graph.Update, newInBorder []graph.VertexID) (absorbed bool, envs []mpi.Envelope, err error)
}

// RemoteCheckpointPeer is the optional extension a RemotePeer implements to
// support consistent-cut checkpointing: Checkpoint snapshots a query's
// in-flight per-fragment state at a superstep barrier, and Restore
// reinstalls such a snapshot under a fresh query id so a restarted run
// resumes from the cut instead of from scratch. The TCP transport's net.Peer
// implements it.
type RemoteCheckpointPeer interface {
	RemotePeer
	// Checkpoint returns the fragment's encoded in-flight query state
	// (RemoteProgram's EncodePartial, taken mid-run at a barrier).
	Checkpoint(query uint64) ([]byte, error)
	// Restore installs a checkpointed state as a fresh task for query, bound
	// to the given residency epoch, without running PEval.
	Restore(query uint64, epoch int64, prog string, queryBytes, state []byte) error
}

// RemoteRecoveryTransport is the capability a distributed transport declares
// to survive worker churn: it knows which fragment ranks lost their hosting
// process, can ship fragments onto surviving (or freshly joined) processes
// and rebind the rank's peer, and surfaces mid-session joins to the engine.
// The TCP transport's net.Cluster implements it; the session's recovery path
// activates only when Options.Recovery is set and the transport has it.
type RemoteRecoveryTransport interface {
	// LostFragments returns the fragment ranks whose hosting worker process
	// is dead and not yet replaced. Empty after a successful Reassign.
	LostFragments() []int
	// RebalanceFragments returns the ranks that should move off the
	// most-loaded processes to even the deal out after membership grew.
	RebalanceFragments() []int
	// Reassign ships each fragment (at the given epoch, with the matching
	// fragmentation graph) to a live worker process of the transport's
	// choosing and rebinds the rank's peer so subsequent calls route there.
	Reassign(epoch int64, gp *partition.FragGraph, frags []*partition.Fragment) error
	// SetJoinHandler registers fn to run whenever a fresh worker process
	// joins mid-session.
	SetJoinHandler(fn func())
}

// RemoteUpdateTransport is the capability a distributed transport declares to
// ship graph-update deltas: ApplyUpdate installs a new epoch on every worker
// process — the rebuilt fragments for the ranks each process hosts plus the
// new fragmentation graph. Workers retain epochs >= floor (plus any epoch
// with live queries), so snapshot reads keep working while updates land.
// The TCP transport's net.Cluster implements it; transports without it make
// ApplyUpdates/Materialize fail with ErrDistributedUnsupported.
type RemoteUpdateTransport interface {
	ApplyUpdate(epoch, floor int64, gp *partition.FragGraph, changed []*partition.Fragment) error
}

// RemoteProgram is the capability a PIE program declares to run on
// distributed sessions: codecs for the query value shipped to workers and
// for the per-fragment partial result shipped back for Assemble. Programs
// without it are rejected by distributed sessions with a clear error.
type RemoteProgram interface {
	Program
	// EncodeQuery serializes the query value for the wire.
	EncodeQuery(q Query) ([]byte, error)
	// DecodeQuery reconstructs the query value on the worker.
	DecodeQuery(data []byte) (Query, error)
	// EncodePartial serializes the fragment's partial result Q(Fi) from the
	// context after the run converged.
	EncodePartial(ctx *Context) ([]byte, error)
	// DecodePartial installs a shipped partial result into a
	// coordinator-side context so Assemble can combine it.
	DecodePartial(ctx *Context, data []byte) error
}

// SupportsRemote reports whether the program can run on distributed
// sessions.
func SupportsRemote(prog Program) bool {
	_, ok := prog.(RemoteProgram)
	return ok
}

// Resolver maps a program name from the wire to a program instance; the
// worker process supplies one (typically pie.ByName) so the engine stays
// independent of the program catalog.
type Resolver func(name string) (Program, bool)

// collector is the sender used on worker hosts: it accumulates the
// envelopes a task routes so the transport can carry them back to the
// coordinator in the call's reply.
type collector struct {
	envs []mpi.Envelope
}

func (c *collector) Send(from, to int, tag string, payload []byte) {
	c.envs = append(c.envs, mpi.Envelope{From: from, To: to, Tag: tag, Payload: payload})
}

func (c *collector) take() []mpi.Envelope {
	out := c.envs
	c.envs = nil
	return out
}

// WorkerHost executes evaluation calls over the fragments resident in a
// worker process. It implements the handler contract of the mpi/net worker
// loop (structurally — core does not import the transport): Setup installs
// the shipped fragments, then PEval/IncEval/Fetch/End serve per-query calls,
// ApplyUpdate installs new epochs under graph updates, and
// Materialize/EvalDelta host materialized-view state. Calls for distinct
// fragments run concurrently; calls for one fragment are issued sequentially
// by the coordinator.
//
// Residency is epoch-versioned: each ApplyUpdate produces a new worker set
// (sharing the untouched fragments of the previous epoch), queries evaluate
// against the epoch their PEval named, and superseded epochs are retired
// once the coordinator's floor passes them and their last query ends.
type WorkerHost struct {
	resolve Resolver
	// parallelism is the sweep-pool width granted to ParallelCapable
	// programs evaluated on this host. It is a worker-process setting (the
	// evaluation wire calls do not carry it), installed by SetParallelism
	// before the host starts serving.
	parallelism int

	mu      sync.Mutex
	current int64
	epochs  map[int64]map[int]*worker
	live    map[int64]int // queries pinned per epoch (views excluded)
	tasks   map[hostKey]*hostTask
}

type hostKey struct {
	query uint64
	rank  int
}

// hostTask is one fragment's retained execution state for one query. View
// tasks outlive their query run: they are rebound to every new epoch and
// keep the pre-batch fragment around for the next EvalDelta.
type hostTask struct {
	t       *task
	epoch   int64
	view    bool
	oldFrag *partition.Fragment // view tasks: the fragment before the latest epoch
}

// NewWorkerHost creates a host that resolves wire program names through
// resolve.
func NewWorkerHost(resolve Resolver) *WorkerHost {
	return &WorkerHost{
		resolve: resolve,
		epochs:  map[int64]map[int]*worker{0: {}},
		live:    make(map[int64]int),
		tasks:   make(map[hostKey]*hostTask),
	}
}

// SetParallelism sets the intra-fragment sweep-pool width this host grants
// ParallelCapable programs (0 or 1 = sequential). Call it before the host
// starts serving evaluation calls.
func (h *WorkerHost) SetParallelism(n int) {
	h.mu.Lock()
	h.parallelism = n
	h.mu.Unlock()
}

// Setup installs the fragments this process hosts and the fragmentation
// graph they route through, as epoch 0. It may be called again on a fresh
// handshake, replacing the previous residency.
func (h *WorkerHost) Setup(frags []*partition.Fragment, gp *partition.FragGraph) error {
	if gp == nil {
		return fmt.Errorf("core: worker host: nil fragmentation graph")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	workers := make(map[int]*worker, len(frags))
	for _, f := range frags {
		if f == nil {
			return fmt.Errorf("core: worker host: nil fragment")
		}
		workers[f.ID] = newWorker(f.ID, f, gp)
	}
	h.current = 0
	h.epochs = map[int64]map[int]*worker{0: workers}
	h.live = make(map[int64]int)
	h.tasks = make(map[hostKey]*hostTask)
	return nil
}

// Ranks returns the fragment ranks this host currently serves, unordered.
func (h *WorkerHost) Ranks() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.epochs[h.current]))
	for r := range h.epochs[h.current] {
		out = append(out, r)
	}
	return out
}

// Epoch returns the latest epoch installed on this host.
func (h *WorkerHost) Epoch() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.current
}

// ApplyUpdate installs a new residency epoch: the rebuilt fragments of this
// batch replace their predecessors, untouched fragments carry over, and
// every worker is rebound to the new fragmentation graph. Materialized-view
// tasks are rebound to the new epoch (keeping the pre-batch fragment for the
// next EvalDelta); epochs older than floor with no live queries are retired.
func (h *WorkerHost) ApplyUpdate(epoch, floor int64, gp *partition.FragGraph, frags []*partition.Fragment) error {
	if gp == nil {
		return fmt.Errorf("core: worker host: nil fragmentation graph")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if epoch <= h.current {
		return fmt.Errorf("core: worker host: epoch %d already installed (current %d)", epoch, h.current)
	}
	cur := h.epochs[h.current]
	next := make(map[int]*worker, len(cur))
	for rank, w := range cur {
		next[rank] = newWorker(rank, w.frag, gp)
	}
	for _, f := range frags {
		if f == nil {
			return fmt.Errorf("core: worker host: nil fragment in update")
		}
		if _, ok := cur[f.ID]; !ok {
			return fmt.Errorf("core: worker host does not serve fragment %d", f.ID)
		}
		next[f.ID] = newWorker(f.ID, f, gp)
	}
	h.epochs[epoch] = next
	h.current = epoch
	for e := range h.epochs {
		if e != epoch && e < floor && h.live[e] == 0 {
			delete(h.epochs, e)
		}
	}
	// Rebind every view task to the new epoch; the fragment it evaluated the
	// previous epoch on becomes the EvalDelta base.
	for key, en := range h.tasks {
		if !en.view {
			continue
		}
		w := next[key.rank]
		en.oldFrag = en.t.ctx.Fragment
		en.t.worker = w
		en.t.ctx.rebind(w.frag, gp)
	}
	return nil
}

// Adopt installs fragments this host did not previously serve, at the given
// epoch. Recovery reassigns a dead process's ranks to survivors at the
// session's current epoch, and rebalancing ships ranks onto a freshly joined
// host whose residency may still be the handshake's epoch 0 — so unlike
// ApplyUpdate, epoch may equal the current one (the fragments merge into it)
// or exceed it (the current residency is carried forward into the new
// epoch, exactly as an update install would).
func (h *WorkerHost) Adopt(epoch int64, gp *partition.FragGraph, frags []*partition.Fragment) error {
	if gp == nil {
		return fmt.Errorf("core: worker host: nil fragmentation graph")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if epoch < h.current {
		return fmt.Errorf("core: worker host: cannot adopt into past epoch %d (current %d)", epoch, h.current)
	}
	next := h.epochs[h.current]
	if epoch > h.current {
		cur := next
		next = make(map[int]*worker, len(cur)+len(frags))
		for rank, w := range cur {
			next[rank] = newWorker(rank, w.frag, gp)
		}
		h.epochs[epoch] = next
		h.current = epoch
	}
	for _, f := range frags {
		if f == nil {
			return fmt.Errorf("core: worker host: nil fragment in adoption")
		}
		next[f.ID] = newWorker(f.ID, f, gp)
	}
	return nil
}

// ReleaseFragment drops a hosted fragment from the current epoch: its rank
// was reassigned to another process. Older epochs keep their copy so queries
// pinned to them finish locally; retained tasks for the rank are dropped —
// an in-flight query on it is being restarted by the coordinator anyway, and
// a view's next maintenance round recomputes on the new host.
func (h *WorkerHost) ReleaseFragment(rank int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.epochs[h.current], rank)
	for key, en := range h.tasks {
		if key.rank != rank {
			continue
		}
		delete(h.tasks, key)
		if !en.view {
			h.live[en.epoch]--
			h.pruneLocked(en.epoch)
		}
	}
	return nil
}

// Checkpoint returns the query's encoded in-flight state on this fragment.
// The codec is the program's partial-result codec: for the built-in
// monotone programs the partial encoding round-trips the full evaluation
// state, so a restored task continues exactly where the cut was taken.
func (h *WorkerHost) Checkpoint(rank int, query uint64) ([]byte, error) {
	en, err := h.task(rank, query)
	if err != nil {
		return nil, err
	}
	return en.t.prog.(RemoteProgram).EncodePartial(en.t.ctx)
}

// Restore installs a checkpointed query state as a fresh task — the restart
// path's replacement for PEval: the task is created bound to the named
// epoch's residency and its state decoded from the snapshot, ready for the
// IncEval supersteps that follow the cut.
func (h *WorkerHost) Restore(rank int, query uint64, epoch int64, progName string, queryBytes, state []byte) error {
	h.mu.Lock()
	workers, ok := h.epochs[epoch]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("core: worker host: epoch %d is not resident (current %d)", epoch, h.current)
	}
	w, ok := workers[rank]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("core: worker host does not serve fragment %d", rank)
	}
	prog, ok := h.resolve(progName)
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("core: worker host: unknown program %q", progName)
	}
	rp, ok := prog.(RemoteProgram)
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("core: program %s does not support distributed execution", progName)
	}
	q, err := rp.DecodeQuery(queryBytes)
	if err != nil {
		h.mu.Unlock()
		return fmt.Errorf("core: worker host: decode %s query: %w", progName, err)
	}
	t := w.newTask(q, prog, &collector{}, Options{Parallelism: h.parallelism})
	key := hostKey{query: query, rank: rank}
	if old, ok := h.tasks[key]; ok && !old.view {
		h.live[old.epoch]--
	}
	h.tasks[key] = &hostTask{t: t, epoch: epoch}
	h.live[epoch]++
	h.mu.Unlock()

	if err := rp.DecodePartial(t.ctx, state); err != nil {
		return fmt.Errorf("core: worker host: restore %s state: %w", progName, err)
	}
	return nil
}

// PEval creates the per-query task for the fragment — bound to the named
// epoch's residency — and runs partial evaluation, returning the envelopes
// it routed.
func (h *WorkerHost) PEval(rank int, query uint64, epoch int64, progName string, queryBytes []byte,
	superstep int, disableIncEval, disableGrouping bool) ([]mpi.Envelope, error) {
	h.mu.Lock()
	workers, ok := h.epochs[epoch]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: worker host: epoch %d is not resident (current %d)", epoch, h.current)
	}
	w, ok := workers[rank]
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: worker host does not serve fragment %d", rank)
	}
	prog, ok := h.resolve(progName)
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: worker host: unknown program %q", progName)
	}
	rp, ok := prog.(RemoteProgram)
	if !ok {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: program %s does not support distributed execution", progName)
	}
	q, err := rp.DecodeQuery(queryBytes)
	if err != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("core: worker host: decode %s query: %w", progName, err)
	}
	t := w.newTask(q, prog, &collector{}, Options{
		DisableIncEval:  disableIncEval,
		DisableGrouping: disableGrouping,
		Parallelism:     h.parallelism,
	})
	key := hostKey{query: query, rank: rank}
	if old, ok := h.tasks[key]; ok && !old.view {
		h.live[old.epoch]-- // a re-run (failure recovery) replaces the task
	}
	h.tasks[key] = &hostTask{t: t, epoch: epoch}
	h.live[epoch]++
	h.mu.Unlock()

	if err := safeCall(func() error { return t.peval(superstep) }); err != nil {
		return nil, err
	}
	return t.comm.(*collector).take(), nil
}

// IncEval delivers envelopes to the fragment's task and runs incremental
// evaluation, returning the envelopes it routed.
func (h *WorkerHost) IncEval(rank int, query uint64, superstep int, envs []mpi.Envelope) ([]mpi.Envelope, error) {
	en, err := h.task(rank, query)
	if err != nil {
		return nil, err
	}
	t := en.t
	if err := safeCall(func() error { return t.incremental(superstep, envs) }); err != nil {
		return nil, err
	}
	return t.comm.(*collector).take(), nil
}

// Fetch returns the fragment's encoded partial result.
func (h *WorkerHost) Fetch(rank int, query uint64) ([]byte, error) {
	en, err := h.task(rank, query)
	if err != nil {
		return nil, err
	}
	return en.t.prog.(RemoteProgram).EncodePartial(en.t.ctx)
}

// Materialize promotes the query's task on this fragment into view state: it
// survives until End, is rebound to every epoch ApplyUpdate installs, and
// serves EvalDelta maintenance rounds. The task stops pinning its birth
// epoch (rebinding replaces pinning).
func (h *WorkerHost) Materialize(rank int, query uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	en, ok := h.tasks[hostKey{query: query, rank: rank}]
	if !ok {
		return fmt.Errorf("core: worker host: no task for query %d on fragment %d (PEval not run?)", query, rank)
	}
	if en.view {
		return nil
	}
	en.view = true
	h.live[en.epoch]--
	h.pruneLocked(en.epoch)
	return nil
}

// EvalDelta runs one maintenance seeding over the view task retained for
// (query, rank): the program's EvalDelta against the current epoch's
// fragment with the pre-batch fragment as base. It reports whether the
// change was absorbed and the envelopes the seeding routed.
func (h *WorkerHost) EvalDelta(rank int, query uint64, superstep int, ops []graph.Update,
	newInBorder []graph.VertexID) (bool, []mpi.Envelope, error) {
	h.mu.Lock()
	en, ok := h.tasks[hostKey{query: query, rank: rank}]
	if !ok || !en.view {
		h.mu.Unlock()
		return false, nil, fmt.Errorf("core: worker host: no view for query %d on fragment %d", query, rank)
	}
	dp, ok := en.t.prog.(DeltaProgram)
	if !ok {
		h.mu.Unlock()
		return false, nil, fmt.Errorf("core: program %s has no EvalDelta", en.t.prog.Name())
	}
	oldG := en.t.ctx.Fragment.Graph
	if en.oldFrag != nil {
		oldG = en.oldFrag.Graph
	}
	h.mu.Unlock()

	t := en.t
	t.ctx.Superstep = superstep
	var absorbed bool
	err := safeCall(func() error {
		ok, derr := dp.EvalDelta(t.ctx, FragmentDelta{Ops: ops, OldGraph: oldG, NewInBorder: newInBorder})
		absorbed = ok
		return derr
	})
	if err != nil {
		return false, nil, err
	}
	if !absorbed {
		return false, nil, nil
	}
	t.route()
	return true, t.comm.(*collector).take(), nil
}

// End drops the fragment's per-query state (query runs and views alike),
// retiring the task's epoch when it was its last reader. Ending an unknown
// query is a no-op so the coordinator can End unconditionally on error
// paths.
func (h *WorkerHost) End(rank int, query uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := hostKey{query: query, rank: rank}
	en, ok := h.tasks[key]
	if !ok {
		return nil
	}
	delete(h.tasks, key)
	if !en.view {
		h.live[en.epoch]--
		h.pruneLocked(en.epoch)
	}
	return nil
}

// pruneLocked tidies the per-epoch query counts. Epoch residency itself is
// only retired by ApplyUpdate's floor: the coordinator may have admitted a
// query at an old epoch that has not issued its PEval yet, so a zero local
// count alone does not make an epoch collectable. Callers hold h.mu.
func (h *WorkerHost) pruneLocked(e int64) {
	if h.live[e] <= 0 {
		delete(h.live, e)
	}
}

func (h *WorkerHost) task(rank int, query uint64) (*hostTask, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	en, ok := h.tasks[hostKey{query: query, rank: rank}]
	if !ok {
		return nil, fmt.Errorf("core: worker host: no task for query %d on fragment %d (PEval not run?)", query, rank)
	}
	return en, nil
}
