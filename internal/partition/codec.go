package partition

// Fragment wire format. A distributed session partitions the graph at the
// coordinator and ships each fragment — its local graph, border sets and the
// shared fragmentation graph GP — to the worker process that will host it
// (Section 6, "Graph partition": fragments are distributed to the workers
// once, then reused by every query). The encoding follows the same
// varint/delta discipline as the update codec in internal/mpi: vertex IDs are
// zigzag-varint deltas against the previous one, sorted sets are ascending
// uvarint deltas, and weights are raw float64 bits so decoded fragments are
// bit-identical to the originals.
//
// Decoding reconstructs the fragment graph through the same Builder path as
// Build, preserving dense vertex order and CSR edge order, which is what
// makes a worker-side evaluation produce byte-identical results to a
// coordinator-side one.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"grape/internal/graph"
)

// fragFormat versions the fragment wire format; bump it when the layout
// changes (the transport's protocol version gates end-to-end compatibility,
// this byte catches mixed payloads inside one protocol generation).
const fragFormat = byte(0x01)

// EncodeFragment serializes one fragment for shipping to a remote worker.
func EncodeFragment(f *Fragment) []byte {
	buf := []byte{fragFormat}
	buf = binary.AppendUvarint(buf, uint64(f.ID))
	buf = appendGraph(buf, f.Graph)
	buf = appendIDSet(buf, f.Local)
	buf = appendIDSet(buf, f.InBorder)
	buf = appendIDSet(buf, f.OutBorder)
	return buf
}

// DecodeFragment reconstructs a fragment encoded by EncodeFragment.
func DecodeFragment(buf []byte) (*Fragment, error) {
	c := &cursor{buf: buf}
	if format := c.u8(); format != fragFormat {
		return nil, fmt.Errorf("partition: unknown fragment format 0x%02x", format)
	}
	f := &Fragment{ID: int(c.uvarint())}
	f.Graph = c.graph()
	f.Local = c.idSet()
	f.InBorder = c.idSet()
	f.OutBorder = c.idSet()
	if c.err != nil {
		return nil, fmt.Errorf("partition: decode fragment: %w", c.err)
	}
	f.local = make(map[graph.VertexID]bool, len(f.Local))
	for _, v := range f.Local {
		f.local[v] = true
	}
	if err := f.checkSets(); err != nil {
		return nil, fmt.Errorf("partition: decode fragment: %w", err)
	}
	f.numberBorders()
	return f, nil
}

// checkSets verifies the invariants Build and ApplyUpdates guarantee and
// border slots rely on: the three ID lists are strictly ascending, every
// owned vertex is in Graph, Fi.I ⊆ Vi, and the vertices of Graph that the
// fragment does not own are exactly Fi.O. A frame that breaks them is
// rejected rather than numbered, so no slot can point outside Graph.
func (f *Fragment) checkSets() error {
	for _, set := range []struct {
		name string
		ids  []graph.VertexID
	}{{"owned", f.Local}, {"in-border", f.InBorder}, {"out-border", f.OutBorder}} {
		for i := 1; i < len(set.ids); i++ {
			if set.ids[i] <= set.ids[i-1] {
				return fmt.Errorf("%s set not strictly ascending at %d", set.name, set.ids[i])
			}
		}
	}
	for _, v := range f.Local {
		if f.Graph.IndexOf(v) < 0 {
			return fmt.Errorf("owned vertex %d missing from fragment graph", v)
		}
	}
	for _, v := range f.InBorder {
		if !f.local[v] {
			return fmt.Errorf("in-border vertex %d not owned by the fragment", v)
		}
	}
	for _, v := range f.OutBorder {
		if f.local[v] || f.Graph.IndexOf(v) < 0 {
			return fmt.Errorf("out-border vertex %d owned or missing from fragment graph", v)
		}
	}
	if n := f.Graph.NumVertices(); n != len(f.Local)+len(f.OutBorder) {
		return fmt.Errorf("fragment graph has %d vertices, want %d owned + %d out-border", n, len(f.Local), len(f.OutBorder))
	}
	return nil
}

// EncodeFragGraph serializes the fragmentation graph GP, which every worker
// needs to deduce the destinations of designated messages (Section 3.2(3)).
// The byte stream is deterministic: maps are emitted in ascending vertex
// order.
func EncodeFragGraph(gp *FragGraph) []byte {
	buf := []byte{fragFormat}
	buf = binary.AppendUvarint(buf, uint64(gp.m))

	owners := make([]graph.VertexID, 0, len(gp.owner))
	for v := range gp.owner {
		owners = append(owners, v)
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	buf = binary.AppendUvarint(buf, uint64(len(owners)))
	prev := int64(0)
	for _, v := range owners {
		buf = binary.AppendVarint(buf, int64(v)-prev)
		prev = int64(v)
		buf = binary.AppendUvarint(buf, uint64(gp.owner[v]))
	}

	mirrored := make([]graph.VertexID, 0, len(gp.mirrors))
	for v := range gp.mirrors {
		mirrored = append(mirrored, v)
	}
	sort.Slice(mirrored, func(i, j int) bool { return mirrored[i] < mirrored[j] })
	buf = binary.AppendUvarint(buf, uint64(len(mirrored)))
	prev = 0
	for _, v := range mirrored {
		buf = binary.AppendVarint(buf, int64(v)-prev)
		prev = int64(v)
		ms := gp.mirrors[v]
		buf = binary.AppendUvarint(buf, uint64(len(ms)))
		for _, f := range ms {
			buf = binary.AppendUvarint(buf, uint64(f))
		}
	}
	return buf
}

// DecodeFragGraph reconstructs a fragmentation graph encoded by
// EncodeFragGraph.
func DecodeFragGraph(buf []byte) (*FragGraph, error) {
	c := &cursor{buf: buf}
	if format := c.u8(); format != fragFormat {
		return nil, fmt.Errorf("partition: unknown fragmentation-graph format 0x%02x", format)
	}
	gp := &FragGraph{m: int(c.uvarint())}

	n := c.count()
	gp.owner = make(map[graph.VertexID]int, n)
	prev := int64(0)
	for i := 0; i < n && c.err == nil; i++ {
		prev += c.varint()
		gp.owner[graph.VertexID(prev)] = int(c.uvarint())
	}

	n = c.count()
	gp.mirrors = make(map[graph.VertexID][]int, n)
	prev = 0
	for i := 0; i < n && c.err == nil; i++ {
		prev += c.varint()
		k := c.count()
		ms := make([]int, 0, k)
		for j := 0; j < k && c.err == nil; j++ {
			ms = append(ms, int(c.uvarint()))
		}
		gp.mirrors[graph.VertexID(prev)] = ms
	}
	if c.err != nil {
		return nil, fmt.Errorf("partition: decode fragmentation graph: %w", c.err)
	}
	return gp, nil
}

// appendGraph serializes a fragment graph: vertices in dense order (so the
// decoded graph assigns the same dense indices) and edges in CSR order with
// dense-index endpoints (so the decoded adjacency lists iterate identically).
func appendGraph(buf []byte, g *graph.Graph) []byte {
	directed := byte(0)
	if g.Directed() {
		directed = 1
	}
	buf = append(buf, directed)
	n := g.NumVertices()
	buf = binary.AppendUvarint(buf, uint64(n))
	prev := int64(0)
	for i := 0; i < n; i++ {
		id := int64(g.VertexAt(i))
		buf = binary.AppendVarint(buf, id-prev)
		prev = id
		buf = appendString(buf, g.Label(i))
	}
	edges := g.Edges()
	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	var wb [8]byte
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, uint64(g.IndexOf(e.Src)))
		buf = binary.AppendUvarint(buf, uint64(g.IndexOf(e.Dst)))
		binary.LittleEndian.PutUint64(wb[:], math.Float64bits(e.Weight))
		buf = append(buf, wb[:]...)
		buf = appendString(buf, e.Label)
	}
	return buf
}

// appendIDSet serializes an ascending vertex-ID list as uvarint deltas after
// a zigzag-varint first element.
func appendIDSet(buf []byte, ids []graph.VertexID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(0)
	for i, v := range ids {
		if i == 0 {
			buf = binary.AppendVarint(buf, int64(v))
		} else {
			buf = binary.AppendUvarint(buf, uint64(int64(v)-prev))
		}
		prev = int64(v)
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// cursor is a sticky-error reader over an encoded buffer: after the first
// malformed field every subsequent read returns zero values, so decoders can
// parse straight-line and check err once.
type cursor struct {
	buf []byte
	off int
	err error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("truncated or malformed %s at offset %d", what, c.off)
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || c.off >= len(c.buf) {
		c.fail("byte")
		return 0
	}
	b := c.buf[c.off]
	c.off++
	return b
}

func (c *cursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail("uvarint")
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail("varint")
		return 0
	}
	c.off += n
	return v
}

// count reads a length prefix and sanity-bounds it against the remaining
// bytes (every counted element takes at least one byte), so corrupt lengths
// fail before any oversized allocation.
func (c *cursor) count() int {
	v := c.uvarint()
	if c.err == nil && v > uint64(len(c.buf)-c.off)+1 {
		c.fail("length")
		return 0
	}
	return int(v)
}

func (c *cursor) float() float64 {
	if c.err != nil || c.off+8 > len(c.buf) {
		c.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
	c.off += 8
	return v
}

func (c *cursor) str() string {
	n := c.count()
	if c.err != nil || c.off+n > len(c.buf) {
		c.fail("string")
		return ""
	}
	s := string(c.buf[c.off : c.off+n])
	c.off += n
	return s
}

func (c *cursor) idSet() []graph.VertexID {
	n := c.count()
	if c.err != nil {
		return nil
	}
	out := make([]graph.VertexID, 0, n)
	prev := int64(0)
	for i := 0; i < n && c.err == nil; i++ {
		if i == 0 {
			prev = c.varint()
		} else {
			prev += int64(c.uvarint())
		}
		out = append(out, graph.VertexID(prev))
	}
	return out
}

func (c *cursor) graph() *graph.Graph {
	directed := c.u8() != 0
	n := c.count()
	if c.err != nil {
		return nil
	}
	b := graph.NewBuilder(directed)
	ids := make([]graph.VertexID, 0, n)
	prev := int64(0)
	for i := 0; i < n && c.err == nil; i++ {
		prev += c.varint()
		id := graph.VertexID(prev)
		b.AddVertex(id, c.str())
		ids = append(ids, id)
	}
	ne := c.count()
	for i := 0; i < ne && c.err == nil; i++ {
		si := c.uvarint()
		di := c.uvarint()
		w := c.float()
		label := c.str()
		if c.err != nil {
			break
		}
		if si >= uint64(len(ids)) || di >= uint64(len(ids)) {
			c.fail("edge endpoint")
			break
		}
		b.AddEdge(ids[si], ids[di], w, label)
	}
	if c.err != nil {
		return nil
	}
	return b.Build()
}
