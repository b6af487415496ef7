package net

import (
	"encoding/binary"
	"testing"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// fuzzHandler is a Handler whose methods accept anything and allocate
// nothing interesting: FuzzCallBody targets the protocol parsing in
// handleCall and parseFragmentShip, not the engine behind it.
type fuzzHandler struct{}

func (fuzzHandler) Setup([]*partition.Fragment, *partition.FragGraph) error { return nil }
func (fuzzHandler) PEval(int, uint64, int64, string, []byte, int, bool, bool) ([]mpi.Envelope, error) {
	return nil, nil
}
func (fuzzHandler) IncEval(int, uint64, int, []mpi.Envelope) ([]mpi.Envelope, error) {
	return nil, nil
}
func (fuzzHandler) Fetch(int, uint64) ([]byte, error) { return []byte{1}, nil }
func (fuzzHandler) End(int, uint64) error             { return nil }
func (fuzzHandler) ApplyUpdate(int64, int64, *partition.FragGraph, []*partition.Fragment) error {
	return nil
}
func (fuzzHandler) Materialize(int, uint64) error { return nil }
func (fuzzHandler) EvalDelta(int, uint64, int, []graph.Update, []graph.VertexID) (bool, []mpi.Envelope, error) {
	return false, nil, nil
}
func (fuzzHandler) Checkpoint(int, uint64) ([]byte, error) { return []byte{2}, nil }
func (fuzzHandler) Restore(int, uint64, int64, string, []byte, []byte) error {
	return nil
}
func (fuzzHandler) Adopt(int64, *partition.FragGraph, []*partition.Fragment) error { return nil }
func (fuzzHandler) ReleaseFragment(int) error                                      { return nil }

// fuzzShipBody encodes a [gpBytes][count][rank fragBytes]... tail shared by
// the update and adopt calls. With a non-nil mutate, each fragment is altered
// before encoding, which yields well-framed but inconsistent fragments.
func fuzzShipBody(tb testing.TB, mutate func(*partition.Fragment)) []byte {
	tb.Helper()
	b := graph.NewBuilder(true)
	for v := 0; v < 8; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+3)%8), 1, "")
	}
	p := partition.Partition(b.Build(), 2, partition.Hash{})
	var body []byte
	body = appendBytes(body, partition.EncodeFragGraph(p.GP))
	body = binary.AppendUvarint(body, uint64(len(p.Fragments)))
	for _, f := range p.Fragments {
		if mutate != nil {
			c := *f
			mutate(&c)
			f = &c
		}
		body = binary.AppendUvarint(body, uint64(f.ID))
		body = appendBytes(body, partition.EncodeFragment(f))
	}
	return body
}

// FuzzCallBody drives handleCall with arbitrary call bodies across the
// protocol-v5 kinds fault tolerance added — checkpoint, restore, adopt,
// release — plus the fragment-shipping update path they share parsing with.
// Malformed bodies must come back as error replies (or reader errors), never
// as panics or runaway allocations; handleCall runs with a nil metrics sink
// exactly as the transport does before registration completes.
func FuzzCallBody(f *testing.F) {
	ship := fuzzShipBody(f, nil)

	// Well-formed bodies for each kind under test.
	var restore []byte
	restore = binary.AppendUvarint(restore, 3)                 // rank
	restore = binary.AppendUvarint(restore, 7)                 // query
	restore = binary.AppendUvarint(restore, 2)                 // epoch
	restore = appendBytes(restore, []byte("sssp"))             // prog
	restore = appendBytes(restore, []byte{9, 0, 0, 0})         // query bytes
	restore = appendBytes(restore, []byte("checkpoint-state")) // state
	f.Add(byte(callRestore), restore)

	var checkpoint []byte
	checkpoint = binary.AppendUvarint(checkpoint, 1) // rank
	checkpoint = binary.AppendUvarint(checkpoint, 4) // query
	f.Add(byte(callCheckpoint), checkpoint)

	var adopt []byte
	adopt = binary.AppendUvarint(adopt, 5) // epoch
	adopt = append(adopt, ship...)
	f.Add(byte(callAdopt), adopt)

	var update []byte
	update = binary.AppendUvarint(update, 6) // epoch
	update = binary.AppendUvarint(update, 2) // floor
	update = append(update, ship...)
	f.Add(byte(callUpdate), update)

	var release []byte
	release = binary.AppendUvarint(release, 1) // rank
	f.Add(byte(callRelease), release)

	// Hostile bodies: truncations, absurd counts, garbage fragments.
	f.Add(byte(callRestore), restore[:3])
	f.Add(byte(callAdopt), binary.AppendUvarint(nil, 1<<40))
	var bomb []byte
	bomb = binary.AppendUvarint(bomb, 1)     // epoch
	bomb = appendBytes(bomb, []byte{0x7F})   // bad GP
	bomb = binary.AppendUvarint(bomb, 1<<33) // fragment count bomb
	f.Add(byte(callAdopt), bomb)
	f.Add(byte(0xEE), []byte{1, 2, 3}) // unknown kind
	// A fragment listing an out-border vertex its graph does not contain.
	var ghost []byte
	ghost = binary.AppendUvarint(ghost, 5) // epoch
	ghost = append(ghost, fuzzShipBody(f, func(fr *partition.Fragment) {
		fr.OutBorder = append(append([]graph.VertexID(nil), fr.OutBorder...), 1<<20)
	})...)
	f.Add(byte(callAdopt), ghost)

	opts := WorkerOptions{}
	f.Fuzz(func(t *testing.T, kind byte, body []byte) {
		r := &reader{buf: body}
		rep := handleCall(fuzzHandler{}, kind, r, nil, opts)
		if rep.err == nil && r.err != nil {
			t.Fatalf("kind 0x%02x: reader error %v swallowed by a success reply", kind, r.err)
		}
	})
}
