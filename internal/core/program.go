// Package core implements the GRAPE parallel engine — the paper's primary
// contribution (Sections 3, 4 and 6). A sequential graph algorithm is plugged
// in as a PIE program (PEval, IncEval, Assemble); the engine partitions the
// graph, runs PEval on every fragment in parallel, then iterates IncEval over
// designated messages derived from changed update parameters until a
// simultaneous fixpoint is reached, and finally calls Assemble to combine the
// partial results.
//
// Correctness follows the Assurance Theorem (Theorem 1): if PEval and IncEval
// are correct sequential algorithms and the update parameters are changed
// monotonically under the program's Aggregate order, the engine terminates
// with the correct answer. The engine also supports key-value messages, which
// is how MapReduce/BSP programs are simulated (Theorem 2).
//
// Beyond single queries, a Session serves a query stream over resident
// fragments, absorbs graph updates in epoch-versioned batches
// (Session.ApplyUpdates) and keeps materialized views fresh across them
// (Session.Materialize) — the dynamic-graph mode of Section 3.4, implemented
// in update.go and view.go.
//
// # Execution planes
//
// The engine's iteration loop is pluggable: a runner (see runner.go) drives
// the per-fragment tasks from PEval to the global fixpoint, and two planes
// implement it. The BSP runner (bsp.go) is the paper's superstep loop —
// barriers, boundary-delivered messages, "no pending messages" termination;
// it supports every program and is fully deterministic. The async runner
// (async.go) is adaptive asynchronous parallelization: workers loop IncEval
// on whatever messages have already arrived, delivery is immediate, and
// termination is an idle consensus (all workers parked and sent == received).
// Programs opt into the async plane by declaring AsyncCapable, which asserts
// their update accumulation is idempotent and monotone so re-ordered and
// re-delivered batches still converge to the BSP answer. Select the plane
// with Options.Mode or per query with Session.RunMode.
//
// # Update parameters and border slots
//
// The update parameters Ci.x̄ live only on border vertices: a parameter of an
// interior vertex has no other fragment to inform. Every fragment numbers its
// border vertices Fi.I ∪ Fi.O once, as slots in ascending vertex-ID order
// (partition.Fragment.Border), and a Context stores its parameters in a dense
// table indexed by slot — one float64 per slot per parameter key, has/dirty
// bitsets, a bitset of the dirty slots, and a payload column only for
// programs that ship Data. Programs with dense per-vertex state address it by
// slot (DeclareAt/SetVarAt/VarAt, with Fragment.BorderIndex mapping a slot to
// its dense vertex index); the vertex-addressed Declare/SetVar/Var resolve the
// slot first, and Declare/SetVar return false for a vertex without one.
// Per-vertex working state of interior vertices belongs in State. takeDirty emits in slot order, which is (vertex, key) order, so
// the routed batches are sorted; route fills one batch per destination rank
// from pooled scratch, so a superstep allocates only the payloads it sends.
// When a view's context moves to a new epoch, the table is remapped by
// vertex ID; fragments an update batch leaves untouched keep their slots.
//
// # Intra-fragment parallelism
//
// Orthogonal to both planes, Options.Parallelism gives every worker a sweep
// pool (internal/par): programs that declare ParallelCapable chunk their
// dense vertex-index ranges over up to that many goroutines inside each
// PEval/IncEval, reached through Context.Pool. The capability asserts a
// strict contract — answers byte-identical to the sequential width-1 path,
// which stays in the tree as the reference implementation — so parallel
// evaluation composes with either plane and either transport without
// changing any result, only the wall-clock. Worker processes of a
// distributed session size their pools locally (WorkerHost.SetParallelism,
// the grape-worker -parallelism flag); nothing about the pool crosses the
// wire.
package core

import (
	"grape/internal/mpi"
)

// Query is an opaque query value handed to the PIE program (for example the
// source vertex of an SSSP query, or a pattern graph for matching).
type Query any

// Program is a PIE program: the three sequential functions the user plugs
// into GRAPE (Figure 1: the "algorithm panel"), plus the aggregateMsg
// conflict-resolution policy of the message segment.
type Program interface {
	// Name identifies the query class Q (used in reports).
	Name() string

	// PEval computes the partial answer Q(Fi) on the fragment held by ctx
	// using any sequential algorithm, declares the update parameters of the
	// fragment (ctx.Declare) and records their computed values (ctx.SetVar).
	PEval(ctx *Context) error

	// IncEval incrementally computes Q(Fi ⊕ Mi): msgs contains the updates to
	// this fragment's update parameters that were accepted by the
	// aggregation policy (i.e. that actually changed the local value).
	// Implementations should reuse the partial result stored in ctx.State and
	// only touch the affected area, ideally with a bounded incremental
	// algorithm (Section 3.3).
	IncEval(ctx *Context, msgs []mpi.Update) error

	// Assemble combines the partial results Q(Fi ⊕ Mi) of all fragments into
	// Q(G) once the fixpoint is reached.
	Assemble(q Query, ctxs []*Context) (any, error)

	// Aggregate is the aggregateMsg policy: it resolves conflicts when
	// multiple values are proposed for the same update parameter and must be
	// monotonic with respect to some partial order for the Assurance Theorem
	// to apply (e.g. min for SSSP and CC, "false wins" for Sim, newest
	// timestamp for CF). It returns the value that should be kept.
	Aggregate(existing, incoming mpi.Update) mpi.Update
}

// KeyValueProgram is an optional extension implemented by programs that use
// key-value messages (the MapReduce simulation mode of Section 3.5). When a
// program emits key-value pairs via ctx.EmitKeyValue, the engine groups them
// by key at the coordinator, routes each key to the worker that owns it
// (hash placement) and delivers them through IncEvalKV.
type KeyValueProgram interface {
	Program
	IncEvalKV(ctx *Context, msgs []mpi.KeyValue) error
}

// Aggregators commonly used as aggregateMsg policies.

// MinAggregate keeps the smaller Value; ties keep the existing update. It is
// the policy used by SSSP and CC (Section 5).
func MinAggregate(existing, incoming mpi.Update) mpi.Update {
	if incoming.Value < existing.Value {
		return incoming
	}
	return existing
}

// MaxAggregate keeps the larger Value.
func MaxAggregate(existing, incoming mpi.Update) mpi.Update {
	if incoming.Value > existing.Value {
		return incoming
	}
	return existing
}

// LatestAggregate keeps the update with the larger Key, treating Key as a
// timestamp — the policy used by CF, where the freshest factor vector wins.
func LatestAggregate(existing, incoming mpi.Update) mpi.Update {
	if incoming.Key > existing.Key {
		return incoming
	}
	return existing
}
