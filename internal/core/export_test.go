package core

import (
	"grape/internal/mpi"
	"grape/internal/partition"
)

// TaskForTest exposes one fragment's query task to the external test
// package, which can import the PIE programs (package core cannot).
type TaskForTest struct{ t *task }

// NewTaskForTest creates the task of prog for q on frag; everything it
// routes is discarded.
func NewTaskForTest(frag *partition.Fragment, gp *partition.FragGraph, q Query, prog Program) *TaskForTest {
	return &TaskForTest{newWorker(frag.ID, frag, gp).newTask(q, prog, discard{}, Options{})}
}

// PEval runs the partial-evaluation superstep, routing included.
func (tt *TaskForTest) PEval() error { return tt.t.peval(1) }

// IncEval runs one incremental superstep over updates sent by from, routing
// included.
func (tt *TaskForTest) IncEval(superstep, from int, ups []mpi.Update) error {
	env := mpi.Envelope{From: from, To: tt.t.worker.rank, Tag: tagUpdates, Payload: mpi.EncodeUpdates(ups)}
	return tt.t.incremental(superstep, []mpi.Envelope{env})
}

// Route ships whatever update parameters are dirty.
func (tt *TaskForTest) Route() { tt.t.route() }

type discard struct{}

func (discard) Send(from, to int, tag string, payload []byte) {}
