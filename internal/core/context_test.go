package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/partition"
)

// refModel is a map-keyed reference implementation of the update-parameter
// table: one map entry per (vertex, key) plus a dirty set, restricted to the
// fragment's current border (a parameter of any other vertex can never ship,
// so the table has no slot for it). TestParamTableDifferential drives it and
// a real Context with the same operations and compares every observation.
type refModel struct {
	frag    *partition.Fragment
	vars    map[refKey]mpi.Update
	dirty   map[refKey]bool
	updates int64
}

type refKey struct {
	v graph.VertexID
	k int64
}

func newRefModel(frag *partition.Fragment) *refModel {
	return &refModel{frag: frag, vars: make(map[refKey]mpi.Update), dirty: make(map[refKey]bool)}
}

func (m *refModel) border(v graph.VertexID) bool { return slices.Contains(m.frag.Border(), v) }

func (m *refModel) declare(v graph.VertexID, k int64, val float64, data []byte) {
	if _, ok := m.vars[refKey{v, k}]; m.border(v) && !ok {
		m.vars[refKey{v, k}] = mpi.Update{Vertex: int64(v), Key: k, Value: val, Data: data}
	}
}

func (m *refModel) setVar(v graph.VertexID, k int64, val float64, data []byte) {
	if !m.border(v) {
		return
	}
	if old, ok := m.vars[refKey{v, k}]; ok && old.Value == val && bytes.Equal(old.Data, data) {
		return
	}
	m.vars[refKey{v, k}] = mpi.Update{Vertex: int64(v), Key: k, Value: val, Data: data}
	m.dirty[refKey{v, k}] = true
	m.updates++
}

func (m *refModel) markDirty(v graph.VertexID, k int64) bool {
	if _, ok := m.vars[refKey{v, k}]; !ok {
		return false
	}
	m.dirty[refKey{v, k}] = true
	return true
}

func (m *refModel) applyIncoming(in []mpi.Update, agg func(e, i mpi.Update) mpi.Update) []mpi.Update {
	var accepted []mpi.Update
	for _, u := range in {
		key := refKey{graph.VertexID(u.Vertex), u.Key}
		if !m.border(key.v) {
			accepted = append(accepted, u)
			continue
		}
		old, ok := m.vars[key]
		if !ok {
			m.vars[key] = u
			accepted = append(accepted, u)
			continue
		}
		merged := agg(old, u)
		if merged.Value != old.Value || !bytes.Equal(merged.Data, old.Data) || merged.Key != old.Key {
			m.vars[key] = merged
			accepted = append(accepted, merged)
		}
	}
	return accepted
}

func sortedKeys[V any](set map[refKey]V) []refKey {
	keys := make([]refKey, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].v != keys[j].v {
			return keys[i].v < keys[j].v
		}
		return keys[i].k < keys[j].k
	})
	return keys
}

func (m *refModel) takeDirty() []mpi.Update {
	var out []mpi.Update
	for _, k := range sortedKeys(m.dirty) {
		out = append(out, m.vars[k])
	}
	m.dirty = make(map[refKey]bool)
	return out
}

func (m *refModel) allVars() []mpi.Update {
	var out []mpi.Update
	for _, k := range sortedKeys(m.vars) {
		out = append(out, m.vars[k])
	}
	return out
}

// rebind moves the model to a new epoch's fragment: parameters of vertices
// that left the border are dropped.
func (m *refModel) rebind(frag *partition.Fragment) {
	m.frag = frag
	for k := range m.vars {
		if !m.border(k.v) {
			delete(m.vars, k)
			delete(m.dirty, k)
		}
	}
}

func sameUpdates(a, b []mpi.Update) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Vertex != b[i].Vertex || a[i].Key != b[i].Key ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// randomEpochBatch mixes cross-fragment edge inserts (the border grows),
// edge and vertex removals (it shrinks) and vertex adds.
func randomEpochBatch(rng *rand.Rand, g *graph.Graph, nextID *int64) []graph.Update {
	var batch []graph.Update
	edges := g.Edges()
	for len(batch) < 1+rng.Intn(6) {
		switch rng.Intn(6) {
		case 0:
			*nextID++
			batch = append(batch, graph.AddVertexUpdate(graph.VertexID(*nextID), ""))
		case 1:
			batch = append(batch, graph.RemoveVertexUpdate(g.VertexAt(rng.Intn(g.NumVertices()))))
		case 2, 3:
			if len(edges) > 0 {
				e := edges[rng.Intn(len(edges))]
				batch = append(batch, graph.RemoveEdgeUpdate(e.Src, e.Dst))
			}
		default:
			u, v := g.VertexAt(rng.Intn(g.NumVertices())), g.VertexAt(rng.Intn(g.NumVertices()))
			if u != v {
				batch = append(batch, graph.AddEdgeUpdate(u, v, 1, ""))
			}
		}
	}
	return batch
}

// TestParamTableDifferential runs randomized Declare / SetVar / MarkDirty /
// applyIncoming / takeDirty sequences — keyed rows, Data payloads, and
// rebinds across ApplyUpdates epochs whose border grows and shrinks —
// against the map-based reference model, comparing takeDirty order and
// content, Var / Vars, MarkDirty's report and LocalUpdates after every step.
func TestParamTableDifferential(t *testing.T) {
	keys := []int64{0, 0, 0, 1, 2, 7}
	values := []float64{1, 2, 3, 5, math.Inf(1)}
	payloads := [][]byte{nil, nil, []byte("a"), []byte("bb")}
	aggs := []func(e, i mpi.Update) mpi.Update{MinAggregate, MaxAggregate}
	grew, shrank := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := partition.Partition(testGraph(), 3, partition.Range{})
		const frag = 1
		ctx := newContext(frag, p.Fragments[frag], p.GP, nil)
		model := newRefModel(p.Fragments[frag])
		nextID := int64(100000)
		// Vertices to address: every vertex of the fragment graph (border and
		// interior) plus one the fragment has never held.
		pick := func() graph.VertexID {
			fg := ctx.Fragment.Graph
			if rng.Intn(20) == 0 {
				return -7
			}
			return fg.VertexAt(rng.Intn(fg.NumVertices()))
		}
		randUpdate := func() mpi.Update {
			return mpi.Update{Vertex: int64(pick()), Key: keys[rng.Intn(len(keys))],
				Value: values[rng.Intn(len(values))], Data: payloads[rng.Intn(len(payloads))]}
		}
		for step := 0; step < 600; step++ {
			where := fmt.Sprintf("seed %d step %d", seed, step)
			u := randUpdate()
			v := graph.VertexID(u.Vertex)
			switch op := rng.Intn(20); {
			case op < 4:
				ctx.Declare(v, u.Key, u.Value, u.Data)
				model.declare(v, u.Key, u.Value, u.Data)
			case op < 10:
				ctx.SetVar(v, u.Key, u.Value, u.Data)
				model.setVar(v, u.Key, u.Value, u.Data)
			case op < 12:
				if got, want := ctx.MarkDirty(v, u.Key), model.markDirty(v, u.Key); got != want {
					t.Fatalf("%s: MarkDirty(%d, %d) = %v, want %v", where, v, u.Key, got, want)
				}
			case op < 15:
				in := make([]mpi.Update, 1+rng.Intn(5))
				for i := range in {
					in[i] = randUpdate()
				}
				agg := aggs[rng.Intn(len(aggs))]
				got, want := ctx.applyIncoming(in, agg), model.applyIncoming(in, agg)
				if !sameUpdates(got, want) {
					t.Fatalf("%s: applyIncoming accepted %+v, want %+v", where, got, want)
				}
			case op < 18:
				if got, want := ctx.takeDirty(nil), model.takeDirty(); !sameUpdates(got, want) {
					t.Fatalf("%s: takeDirty = %+v, want %+v", where, got, want)
				}
			case op < 19:
				if got, want := ctx.Vars(), model.allVars(); !sameUpdates(got, want) {
					t.Fatalf("%s: Vars = %+v, want %+v", where, got, want)
				}
			default:
				batch := randomEpochBatch(rng, ctx.Fragment.Graph, &nextID)
				next, _ := p.ApplyUpdates(batch, partition.HashPlacer(3))
				for _, b := range next.Fragments[frag].Border() {
					if !slices.Contains(p.Fragments[frag].Border(), b) {
						grew++
						break
					}
				}
				for _, b := range p.Fragments[frag].Border() {
					if !slices.Contains(next.Fragments[frag].Border(), b) {
						shrank++
						break
					}
				}
				p = next
				ctx.rebind(p.Fragments[frag], p.GP)
				model.rebind(p.Fragments[frag])
			}
			got, gok := ctx.Var(v, u.Key)
			want, wok := model.vars[refKey{v, u.Key}]
			if gok != wok || (gok && !sameUpdates([]mpi.Update{got}, []mpi.Update{want})) {
				t.Fatalf("%s: Var(%d, %d) = %+v %v, want %+v %v", where, v, u.Key, got, gok, want, wok)
			}
			if ctx.LocalUpdates() != model.updates {
				t.Fatalf("%s: LocalUpdates = %d, want %d", where, ctx.LocalUpdates(), model.updates)
			}
		}
		if got, want := ctx.takeDirty(nil), model.takeDirty(); !sameUpdates(got, want) {
			t.Fatalf("seed %d: final takeDirty = %+v, want %+v", seed, got, want)
		}
		if got, want := ctx.Vars(), model.allVars(); !sameUpdates(got, want) {
			t.Fatalf("seed %d: final Vars = %+v, want %+v", seed, got, want)
		}
	}
	if grew == 0 || shrank == 0 {
		t.Fatalf("epochs grew the border %d times and shrank it %d times; want both", grew, shrank)
	}
}
