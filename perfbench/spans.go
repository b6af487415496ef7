package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layer names, used as span categories and in per-layer metric names.
const (
	layerCore   = "core"        // coordinator session: the op span itself
	layerNet    = "mpi.net"     // coordinator-side RemotePeer calls
	layerWorker = "core.worker" // worker-side grapenet.Handler calls
	layerPIE    = "pie"         // the PIE program: PEval, IncEval, Assemble, EvalDelta
)

// layerDepth orders layers from the client inwards; the exclusive timeline
// attributes each instant to the deepest layer active in it.
var layerDepth = map[string]int{layerCore: 1, layerNet: 2, layerWorker: 3, layerPIE: 4}

// span is one timed call across a layer boundary.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for op spans
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Op     int           `json:"op"`    // the client op (query or batch) it belongs to
	Query  uint64        `json:"query"` // engine query id on net/worker spans, else 0
	Rank   int           `json:"rank"`  // fragment rank, -1 when not per fragment
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
// The client is closed-loop, so every span recorded while an op span is
// open belongs to that op.
type recorder struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	op     int // current client op
	opSpan int // open op span, 0 between ops
	// peerOpen maps (rank, engine query) to the open coordinator-side call,
	// the parent of the worker-side handler span serving it.
	peerOpen map[[2]uint64]int
	// evalOpen maps a rank to its open worker-side evaluation call, the
	// parent of the program spans it runs. Calls for one rank are serial.
	evalOpen map[int]int
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), peerOpen: map[[2]uint64]int{}, evalOpen: map[int]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// begin opens a span and returns its id.
func (r *recorder) begin(name, layer string, parent, rank int, query uint64) int {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Layer: layer,
		Op: r.op, Query: query, Rank: rank, Start: start, End: -1})
	return id
}

func (r *recorder) end(id int) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// beginOp opens the span of one client op; every span until endOp is its
// descendant.
func (r *recorder) beginOp(op int, name string) {
	r.mu.Lock()
	r.op = op
	r.mu.Unlock()
	id := r.begin(name, layerCore, 0, -1, 0)
	r.mu.Lock()
	r.opSpan = id
	r.mu.Unlock()
}

func (r *recorder) endOp() {
	r.mu.Lock()
	id := r.opSpan
	r.opSpan = 0
	r.mu.Unlock()
	r.end(id)
}

func (r *recorder) currentOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.opSpan
}

// beginPeer opens a coordinator-side call to a remote fragment.
func (r *recorder) beginPeer(name string, rank int, query uint64) int {
	id := r.begin(name, layerNet, r.currentOp(), rank, query)
	r.mu.Lock()
	r.peerOpen[[2]uint64{uint64(rank), query}] = id
	r.mu.Unlock()
	return id
}

func (r *recorder) endPeer(id, rank int, query uint64) {
	r.mu.Lock()
	delete(r.peerOpen, [2]uint64{uint64(rank), query})
	r.mu.Unlock()
	r.end(id)
}

// beginHandler opens a worker-side call; eval marks calls that run program
// code, whose program spans nest under it.
func (r *recorder) beginHandler(name string, rank int, query uint64, eval bool) int {
	r.mu.Lock()
	parent, ok := r.peerOpen[[2]uint64{uint64(rank), query}]
	if !ok {
		parent = r.opSpan
	}
	r.mu.Unlock()
	id := r.begin(name, layerWorker, parent, rank, query)
	if eval {
		r.mu.Lock()
		r.evalOpen[rank] = id
		r.mu.Unlock()
	}
	return id
}

func (r *recorder) endHandler(id, rank int, eval bool) {
	if eval {
		r.mu.Lock()
		delete(r.evalOpen, rank)
		r.mu.Unlock()
	}
	r.end(id)
}

// beginProgram opens a program call on one fragment (rank -1: Assemble).
func (r *recorder) beginProgram(name string, rank int) int {
	r.mu.Lock()
	parent, ok := r.evalOpen[rank]
	if !ok {
		parent = r.opSpan
	}
	r.mu.Unlock()
	return r.begin(name, layerPIE, parent, rank, 0)
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// coverage is the total length of the union of the intervals.
func coverage(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	cs, ce := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > ce {
			total += ce - cs
			cs, ce = x[0], x[1]
		} else if x[1] > ce {
			ce = x[1]
		}
	}
	return total + ce - cs
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		var clipped [][2]time.Duration
		for _, c := range children[s.ID] {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi > lo {
				clipped = append(clipped, [2]time.Duration{lo, hi})
			}
		}
		self[s.ID] = s.dur() - coverage(clipped)
	}
	return self
}

// exclusive attributes every instant of [from, to) to the deepest layer
// with an open span, and the instants no span covers to "residual": the
// client's own time between engine calls. The shares add up to to-from.
func exclusive(spans []span, from, to time.Duration) map[string]time.Duration {
	type edge struct {
		at    time.Duration
		depth int
		delta int
	}
	var edges []edge
	for _, s := range spans {
		lo, hi := max(s.Start, from), min(s.End, to)
		if hi > lo {
			d := layerDepth[s.Layer]
			edges = append(edges, edge{lo, d, +1}, edge{hi, d, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	names := map[int]string{0: "residual"}
	for l, d := range layerDepth {
		names[d] = l
	}
	open := make([]int, len(names))
	out := map[string]time.Duration{}
	prev := from
	for _, e := range append(edges, edge{at: to}) {
		deepest := 0
		for d := len(open) - 1; d > 0; d-- {
			if open[d] > 0 {
				deepest = d
				break
			}
		}
		out[names[deepest]] += e.at - prev
		prev = e.at
		open[e.depth] += e.delta
	}
	return out
}

// writeSpans writes the spans as Chrome trace-event JSON (viewable in
// Perfetto or chrome://tracing), with the run's stamp as metadata.
func writeSpans(path string, spans []span, st stamp) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, PID: 1, TID: s.Rank + 2,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "query": s.Query}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "metadata": st})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
