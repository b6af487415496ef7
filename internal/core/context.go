package core

import (
	"bytes"
	"math/bits"
	"slices"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/par"
	"grape/internal/partition"
)

// Context is the per-fragment execution context handed to PEval and IncEval.
// It exposes the fragment, the fragmentation graph and the query, stores the
// program's partial result (State), and tracks the update parameters Ci.x̄
// whose changes the engine turns into designated messages.
//
// Update parameters live on border vertices only — a parameter of an
// interior vertex has no other fragment to inform — so they are stored in a
// dense table indexed by the fragment's border slots (Fragment.Border): one
// row per parameter key, one float64 per slot, with has/dirty bitsets and a
// bitset of the slots holding dirty parameters. Most programs use key 0 only;
// Sim keys rows by query node and PageRank by sending fragment. Declaring or
// setting a parameter of a vertex without a slot is a no-op. Rows are
// allocated on first use, so a context that never evaluates (the
// coordinator-side context of a remote fragment) allocates no table.
type Context struct {
	// Worker is the fragment/worker index i in [0, m).
	Worker int
	// Fragment is Fi: the local subgraph plus border copies. Its border
	// slots index the parameter table; only the engine rebinds it.
	Fragment *partition.Fragment
	// GP is the fragmentation graph, available for programs that want to
	// reason about vertex placement (most do not need it).
	GP *partition.FragGraph
	// Query is the query Q being evaluated.
	Query Query
	// Superstep is the current superstep number (1 for PEval).
	Superstep int
	// State holds the program's partial result Q(Fi). It is owned entirely
	// by the program; the engine never inspects it.
	State any

	rows    []paramRow // ascending key, so visiting rows per slot yields (vertex, key) order
	listed  bitset     // slots holding at least one dirty parameter; nil until the first row exists
	kvOut   []mpi.KeyValue
	rawOut  []rawMessage
	updates int64 // total SetVar calls that changed a value, for reporting

	pool *par.Pool // sweep pool for ParallelCapable programs; nil = sequential
}

// paramRow holds the parameters of one key, one entry per border slot.
type paramRow struct {
	key   int64
	val   []float64
	data  [][]byte // payload column; nil until a parameter of the row carries Data
	has   bitset   // declared
	dirty bitset   // changed since the last takeDirty
}

type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clearBit(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// sameAs reports whether slot s already holds exactly (value, data).
func (r *paramRow) sameAs(s int, value float64, data []byte) bool {
	if !r.has.get(s) || r.val[s] != value {
		return false
	}
	if r.data == nil {
		return len(data) == 0
	}
	return bytes.Equal(r.data[s], data)
}

// Pool returns the intra-fragment sweep pool the engine granted this
// evaluation: non-nil only when Options.Parallelism asked for one and the
// program declared ParallelCapable. The nil pool is valid and sequential, so
// kernels can pass it down unconditionally. Context methods (SetVar, Declare,
// EmitKeyValue, ...) are NOT safe for concurrent use — programs must confine
// them to the merge phase after a sweep joins.
func (c *Context) Pool() *par.Pool { return c.pool }

// RawMessageVertex is the Vertex value carried by raw designated messages
// when they are delivered to IncEval: a program that uses SendToWorker
// recognizes these updates by this sentinel and reads their Data payload.
const RawMessageVertex = int64(-1)

type rawMessage struct {
	dst  int
	data []byte
}

func newContext(worker int, frag *partition.Fragment, gp *partition.FragGraph, q Query) *Context {
	return &Context{Worker: worker, Fragment: frag, GP: gp, Query: q}
}

// row returns the row of key, creating it (in key order) when create is set;
// without create it returns nil for a key never used. The pointer is valid
// until the next row is created.
func (c *Context) row(key int64, create bool) *paramRow {
	i := 0
	for ; i < len(c.rows); i++ {
		if k := c.rows[i].key; k == key {
			return &c.rows[i]
		} else if k > key {
			break
		}
	}
	if !create {
		return nil
	}
	n := c.Fragment.NumBorder()
	if c.listed == nil {
		c.listed = newBitset(n)
	}
	c.rows = slices.Insert(c.rows, i, paramRow{key: key, val: make([]float64, n), has: newBitset(n), dirty: newBitset(n)})
	return &c.rows[i]
}

func (c *Context) store(r *paramRow, s int, value float64, data []byte) {
	r.val[s] = value
	if data != nil && r.data == nil {
		r.data = make([][]byte, len(r.val))
	}
	if r.data != nil {
		r.data[s] = data
	}
	r.has.set(s)
}

func (c *Context) markDirty(r *paramRow, s int) {
	r.dirty.set(s)
	c.listed.set(s)
}

func (r *paramRow) update(v graph.VertexID, s int) mpi.Update {
	u := mpi.Update{Vertex: int64(v), Key: r.key, Value: r.val[s]}
	if r.data != nil {
		u.Data = r.data[s]
	}
	return u
}

// DeclareAt registers the update parameter (border slot s, key) with its
// initial value without marking it dirty. PEval uses it for the message
// preamble ("an integer variable dist(s,v) is declared for each node v,
// initially ∞"). Declaring an already-declared parameter is a no-op, so PEval
// may safely be re-run over a fragment whose variables already carry refined
// values (the GRAPE_NI mode).
func (c *Context) DeclareAt(s int, key int64, value float64, data []byte) {
	if r := c.row(key, true); !r.has.get(s) {
		c.store(r, s, value, data)
	}
}

// SetVarAt records a new value for the update parameter (border slot s,
// key). If the value differs from the currently stored one the parameter is
// marked dirty, and the change will be shipped to the other fragments
// holding the variable at the end of the superstep. Undeclared parameters
// are created implicitly.
func (c *Context) SetVarAt(s int, key int64, value float64, data []byte) {
	r := c.row(key, true)
	if r.sameAs(s, value, data) {
		return
	}
	c.store(r, s, value, data)
	c.markDirty(r, s)
	c.updates++
}

// VarAt returns the value of the update parameter (border slot s, key) and
// whether it has been declared.
func (c *Context) VarAt(s int, key int64) (float64, bool) {
	if r := c.row(key, false); r != nil && r.has.get(s) {
		return r.val[s], true
	}
	return 0, false
}

// Declare is DeclareAt addressed by vertex. It reports whether v has a
// border slot; for a vertex without one it does nothing and returns false.
func (c *Context) Declare(v graph.VertexID, key int64, value float64, data []byte) bool {
	s := c.Fragment.SlotOf(v)
	if s >= 0 {
		c.DeclareAt(s, key, value, data)
	}
	return s >= 0
}

// SetVar is SetVarAt addressed by vertex. It reports whether v has a border
// slot; for a vertex without one, whose parameter no other fragment could
// observe, it does nothing and returns false. Per-vertex state of interior
// vertices belongs in State, not in update parameters.
func (c *Context) SetVar(v graph.VertexID, key int64, value float64, data []byte) bool {
	s := c.Fragment.SlotOf(v)
	if s >= 0 {
		c.SetVarAt(s, key, value, data)
	}
	return s >= 0
}

// MarkDirty re-marks an already declared update parameter dirty, so its
// current value is re-shipped at the end of the superstep even though it did
// not change. View maintenance uses it when a vertex gains a new mirror
// fragment that has never seen the value. It reports whether the parameter
// exists.
func (c *Context) MarkDirty(v graph.VertexID, key int64) bool {
	s := c.Fragment.SlotOf(v)
	if s < 0 {
		return false
	}
	r := c.row(key, false)
	if r == nil || !r.has.get(s) {
		return false
	}
	c.markDirty(r, s)
	return true
}

// Var returns the current value of an update parameter and whether it has
// been declared.
func (c *Context) Var(v graph.VertexID, key int64) (mpi.Update, bool) {
	s := c.Fragment.SlotOf(v)
	if s < 0 {
		return mpi.Update{}, false
	}
	r := c.row(key, false)
	if r == nil || !r.has.get(s) {
		return mpi.Update{}, false
	}
	return r.update(v, s), true
}

// VarValue returns the numeric value of an update parameter, or def if the
// parameter has not been declared.
func (c *Context) VarValue(v graph.VertexID, key int64, def float64) float64 {
	if u, ok := c.Var(v, key); ok {
		return u.Value
	}
	return def
}

// Vars returns all declared update parameters in (vertex, key) order. It is
// mostly useful to Assemble implementations and tests.
func (c *Context) Vars() []mpi.Update {
	var out []mpi.Update
	for s, v := range c.Fragment.Border() {
		for i := range c.rows {
			if r := &c.rows[i]; r.has.get(s) {
				out = append(out, r.update(v, s))
			}
		}
	}
	return out
}

// EmitKeyValue emits a key-value message (MapReduce simulation mode). The
// engine groups emitted pairs by key at the coordinator and delivers them to
// the worker owning the key in the next superstep.
func (c *Context) EmitKeyValue(key string, value []byte) {
	c.kvOut = append(c.kvOut, mpi.KeyValue{Key: key, Value: value})
}

// SendToWorker ships an opaque designated message to another worker
// (Section 3.5: "designated messages from one worker to another"). The
// payload is delivered to the destination's IncEval in the next superstep as
// an update whose Vertex equals RawMessageVertex and whose Data holds the
// payload. Messages to out-of-range workers or to the sender itself are
// dropped.
func (c *Context) SendToWorker(dst int, data []byte) {
	if dst == c.Worker || dst < 0 || dst >= c.GP.NumFragments() {
		return
	}
	c.rawOut = append(c.rawOut, rawMessage{dst: dst, data: data})
}

// LocalUpdates reports how many SetVar calls changed a value over the whole
// run, a cheap proxy for the amount of local work used in tests.
func (c *Context) LocalUpdates() int64 { return c.updates }

// rebind points the context at a new epoch's fragment and fragmentation
// graph. Parameters follow their vertex: every row is remapped from the old
// border slots to the new ones by vertex ID, and a parameter whose vertex
// left the border is dropped (it could never ship again). Rebinding to the
// fragment already bound keeps the table as it is.
func (c *Context) rebind(frag *partition.Fragment, gp *partition.FragGraph) {
	c.GP = gp
	old := c.Fragment
	c.Fragment = frag
	if frag == old || c.listed == nil {
		return
	}
	ob, nb := old.Border(), frag.Border()
	n := len(nb)
	listed := newBitset(n)
	for ri := range c.rows {
		r := &c.rows[ri]
		nr := paramRow{key: r.key, val: make([]float64, n), has: newBitset(n), dirty: newBitset(n)}
		if r.data != nil {
			nr.data = make([][]byte, n)
		}
		o := 0
		for s, v := range nb {
			for o < len(ob) && ob[o] < v {
				o++
			}
			if o == len(ob) || ob[o] != v || !r.has.get(o) {
				continue
			}
			nr.val[s] = r.val[o]
			if nr.data != nil {
				nr.data[s] = r.data[o]
			}
			nr.has.set(s)
			if r.dirty.get(o) {
				nr.dirty.set(s)
				listed.set(s)
			}
		}
		*r = nr
	}
	c.listed = listed
}

// applyIncoming merges incoming updates into the context's variables using
// the program's aggregation policy. It returns the updates that actually
// changed a local value — the Mi handed to IncEval. Incoming changes are not
// marked dirty (the coordinator already knows them); only changes made
// subsequently by IncEval are shipped back. An update for a vertex without a
// border slot here has no parameter to merge into and is passed through.
func (c *Context) applyIncoming(incoming []mpi.Update, agg func(existing, incoming mpi.Update) mpi.Update) []mpi.Update {
	var accepted []mpi.Update
	for _, in := range incoming {
		s := c.Fragment.SlotOf(graph.VertexID(in.Vertex))
		if s < 0 {
			accepted = append(accepted, in)
			continue
		}
		r := c.row(in.Key, true)
		if !r.has.get(s) {
			c.store(r, s, in.Value, in.Data)
			accepted = append(accepted, in)
			continue
		}
		old := r.update(graph.VertexID(in.Vertex), s)
		merged := agg(old, in)
		if merged.Value != old.Value || !bytes.Equal(merged.Data, old.Data) || merged.Key != old.Key {
			c.store(r, s, merged.Value, merged.Data)
			accepted = append(accepted, merged)
		}
	}
	return accepted
}

// hasDirty reports whether any parameter is waiting to ship.
func (c *Context) hasDirty() bool {
	for _, w := range c.listed {
		if w != 0 {
			return true
		}
	}
	return false
}

// takeDirty appends the dirty update parameters to buf in (vertex, key)
// order — slot order, keys ascending within a slot — and clears them.
// Walking the set bits of listed word by word visits slots in ascending
// order, so no sort is needed.
func (c *Context) takeDirty(buf []mpi.Update) []mpi.Update {
	border := c.Fragment.Border()
	for wi, w := range c.listed {
		if w == 0 {
			continue
		}
		c.listed[wi] = 0
		for ; w != 0; w &= w - 1 {
			s := wi<<6 + bits.TrailingZeros64(w)
			for i := range c.rows {
				if r := &c.rows[i]; r.dirty.get(s) {
					r.dirty.clearBit(s)
					buf = append(buf, r.update(border[s], s))
				}
			}
		}
	}
	return buf
}

// takeKV returns and clears the key-value messages emitted this superstep.
func (c *Context) takeKV() []mpi.KeyValue {
	out := c.kvOut
	c.kvOut = nil
	return out
}

// takeRaw returns and clears the raw designated messages emitted this
// superstep.
func (c *Context) takeRaw() []rawMessage {
	out := c.rawOut
	c.rawOut = nil
	return out
}
