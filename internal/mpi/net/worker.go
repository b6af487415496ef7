package net

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"grape/internal/graph"
	"grape/internal/mpi"
	"grape/internal/obs"
	"grape/internal/partition"
)

// WorkerOptions configure a worker process's connection to the coordinator.
type WorkerOptions struct {
	// DialTimeout is the total budget for dialing the coordinator with
	// exponential backoff — workers may legitimately start before the
	// coordinator listens. Zero means 30 seconds.
	DialTimeout time.Duration
	// Logf, when non-nil, receives progress lines (dial retries, handshake,
	// shutdown). Workers run unattended in CI; the log is their only voice.
	Logf func(format string, args ...any)
	// Log, when non-nil and Logf is nil, receives the same progress lines as
	// structured records.
	Log *slog.Logger
	// Metrics is the registry this connection's counters register in, polled
	// by the coordinator over the stats call. Nil allocates a private
	// registry, which keeps several in-process workers (tests, benchmarks)
	// from double counting into a shared one.
	Metrics *obs.Registry
	// Join marks this worker as a mid-session joiner: the hello carries the
	// join flag, and the coordinator's elastic accept loop admits it with a
	// fresh process id and no fragments (the cluster rebalances ranks onto it
	// afterwards) instead of counting it toward the bring-up quorum.
	Join bool
}

// loga emits one progress record. When Log carries the line the fields
// travel as structured slog attrs (rank/epoch/proc stay queryable); the Logf
// fallback formats them as key=value pairs.
func (o WorkerOptions) loga(level slog.Level, msg string, attrs ...any) {
	if o.Logf != nil {
		var b strings.Builder
		b.WriteString(msg)
		for i := 0; i+1 < len(attrs); i += 2 {
			fmt.Fprintf(&b, " %v=%v", attrs[i], attrs[i+1])
		}
		o.Logf("%s", b.String())
		return
	}
	if o.Log != nil {
		o.Log.Log(context.Background(), level, msg, attrs...)
	}
}

// workerMetrics are the per-connection counters a worker process reports
// back over the stats call.
type workerMetrics struct {
	calls       *obs.CounterVecHandle
	callSeconds *obs.HistogramHandle
	frames      *obs.CounterHandle
	epochs      *obs.CounterHandle
	dialRetries *obs.CounterHandle
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	return &workerMetrics{
		calls: reg.CounterVec("grape_worker_calls_total",
			"Coordinator calls served by this worker process, by kind.", "kind"),
		callSeconds: reg.Histogram("grape_worker_call_seconds",
			"Wall-clock duration of served evaluation calls.", nil),
		frames: reg.Counter("grape_worker_frames_total",
			"Frames read from the coordinator connection."),
		epochs: reg.Counter("grape_worker_epochs_installed_total",
			"Residency epochs installed from update-batch calls."),
		dialRetries: reg.Counter("grape_worker_dial_retries_total",
			"Coordinator connection attempts (refused dials, connections closed before the welcome) that failed and were retried."),
	}
}

// callKindName names a call kind for the per-kind counter label.
func callKindName(kind byte) string {
	switch kind {
	case callPEval:
		return "peval"
	case callIncEval:
		return "inceval"
	case callFetch:
		return "fetch"
	case callEnd:
		return "end"
	case callPing:
		return "ping"
	case callUpdate:
		return "update"
	case callMaterialize:
		return "materialize"
	case callEvalDelta:
		return "evaldelta"
	case callStats:
		return "stats"
	case callCheckpoint:
		return "checkpoint"
	case callRestore:
		return "restore"
	case callAdopt:
		return "adopt"
	case callRelease:
		return "release"
	default:
		return "unknown"
	}
}

// Handler executes the coordinator's calls over the fragments a worker
// process hosts. core.WorkerHost implements it (structurally — this package
// stays independent of the engine); the methods mirror the Peer and Cluster
// methods on the coordinator side.
type Handler interface {
	// Setup installs the fragments shipped during the handshake and the
	// fragmentation graph they route through.
	Setup(frags []*partition.Fragment, gp *partition.FragGraph) error
	// PEval runs partial evaluation for one query on one hosted fragment,
	// against the residency of the named epoch.
	PEval(rank int, query uint64, epoch int64, prog string, queryBytes []byte, superstep int,
		disableIncEval, disableGrouping bool) ([]mpi.Envelope, error)
	// IncEval runs incremental evaluation over delivered envelopes.
	IncEval(rank int, query uint64, superstep int, envs []mpi.Envelope) ([]mpi.Envelope, error)
	// Fetch returns the fragment's encoded partial result.
	Fetch(rank int, query uint64) ([]byte, error)
	// End releases the fragment's per-query state.
	End(rank int, query uint64) error
	// ApplyUpdate installs a new residency epoch: the rebuilt fragments of an
	// update batch plus the new fragmentation graph; epochs older than floor
	// with no readers are retired.
	ApplyUpdate(epoch, floor int64, gp *partition.FragGraph, frags []*partition.Fragment) error
	// Materialize promotes a converged query's retained state into view
	// state, rebound to each installed epoch until End.
	Materialize(rank int, query uint64) error
	// EvalDelta seeds one view-maintenance round on the fragment's retained
	// view state.
	EvalDelta(rank int, query uint64, superstep int, ops []graph.Update,
		newInBorder []graph.VertexID) (absorbed bool, envs []mpi.Envelope, err error)
	// Checkpoint returns the query's encoded in-flight state on the fragment
	// (the coordinator snapshots every rank at a superstep barrier).
	Checkpoint(rank int, query uint64) ([]byte, error)
	// Restore reinstalls a checkpointed query state under a fresh query id
	// bound to the given residency epoch.
	Restore(rank int, query uint64, epoch int64, prog string, queryBytes, state []byte) error
	// Adopt installs fragments this process did not previously host, at the
	// given epoch (>= the current one; the residency is carried forward).
	Adopt(epoch int64, gp *partition.FragGraph, frags []*partition.Fragment) error
	// ReleaseFragment drops a hosted fragment at the current epoch: its rank
	// moved to another process.
	ReleaseFragment(rank int) error
}

// handshakeIOTimeout bounds each read/write of the worker-side handshake
// once the connection is up.
const handshakeIOTimeout = 30 * time.Second

// RunWorker connects a worker process to the coordinator at addr and serves
// calls until the coordinator shuts the cluster down. It dials with
// exponential backoff (the coordinator may not be listening yet), performs
// the handshake — protocol version exchange, cluster size and rank
// assignment, fragment installation — and then answers calls concurrently,
// one goroutine per in-flight request (heartbeat pings are answered inline,
// so a busy evaluation never delays the liveness probe). It returns nil on
// graceful shutdown and an error if the handshake fails or the connection is
// lost mid-run.
func RunWorker(addr string, h Handler, opts WorkerOptions) error {
	return RunWorkerCtx(context.Background(), addr, h, opts)
}

// RunWorkerCtx is RunWorker with cancellation: a done context aborts the
// dial/backoff loop immediately and closes the connection mid-run, in both
// cases returning the context's error.
func RunWorkerCtx(ctx context.Context, addr string, h Handler, opts WorkerOptions) (err error) {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	defer func() {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
	}()
	wm := newWorkerMetrics(reg)
	conn, ranks, frags, gp, err := connect(ctx, addr, opts, wm)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := h.Setup(frags, gp); err != nil {
		msg := fmt.Sprintf("fragment setup failed: %v", err)
		_ = writeFrame(conn, appendString([]byte{ftError}, msg))
		return fmt.Errorf("net: %s", msg)
	}
	if err := writeFrame(conn, []byte{ftReady}); err != nil {
		return fmt.Errorf("net: sending ready: %w", err)
	}
	conn.SetDeadline(time.Time{})
	opts.loga(slog.LevelInfo, "serving fragments", "ranks", ranks)

	var wmu sync.Mutex
	reply := func(reqID uint64, rep callReply) {
		// Build the reply straight into a pooled frame buffer and ship it
		// with a single write.
		f := newFrame()
		f.buf = append(f.buf, ftReply)
		f.buf = binary.AppendUvarint(f.buf, reqID)
		if rep.err != nil {
			f.buf = append(f.buf, 0)
			f.buf = appendString(f.buf, rep.err.Error())
		} else {
			f.buf = append(f.buf, 1)
			f.buf = append(f.buf, rep.body...)
		}
		wmu.Lock()
		werr := f.send(conn)
		wmu.Unlock()
		if werr != nil {
			// The read loop will observe the broken connection and exit;
			// nothing more to do here.
			opts.loga(slog.LevelWarn, "reply write failed", "err", werr)
		}
	}
	for {
		// Frames are read into pooled buffers: handleCall's parsers copy
		// every value that outlives the call (envelope payloads, strings,
		// decoded fragments), so the buffer recycles as soon as the call's
		// handler returns.
		f, err := readFrameP(conn)
		if err != nil {
			return fmt.Errorf("net: coordinator connection lost: %w", err)
		}
		wm.frames.Inc()
		r := &reader{buf: f.payload()}
		switch ft := r.u8(); ft {
		case ftShutdown:
			f.release()
			opts.loga(slog.LevelInfo, "coordinator shut the cluster down")
			return nil
		case ftCall:
			reqID := r.uvarint()
			kind := r.u8()
			if r.err != nil {
				err := r.err
				f.release()
				return fmt.Errorf("net: malformed call: %w", err)
			}
			switch kind {
			case callPing:
				// Liveness probe: answer from the frame loop itself so the
				// coordinator's prober measures process liveness, not
				// evaluation latency.
				f.release()
				wm.calls.With("ping").Inc()
				reply(reqID, callReply{})
				continue
			case callStats:
				// Counter snapshot: also answered inline, so a scrape reads
				// fresh numbers even while evaluations are in flight.
				f.release()
				wm.calls.With("stats").Inc()
				reply(reqID, callReply{body: obs.EncodeSamples(reg.Gather())})
				continue
			}
			go func(f *frame, reqID uint64, kind byte, r *reader) {
				start := time.Now()
				rep := handleCall(h, kind, r, wm, opts)
				wm.calls.With(callKindName(kind)).Inc()
				wm.callSeconds.Observe(time.Since(start).Seconds())
				f.release()
				reply(reqID, rep)
			}(f, reqID, kind, r)
		default:
			f.release()
			return fmt.Errorf("net: unexpected frame 0x%02x from coordinator", ft)
		}
	}
}

// handleCall parses one call's kind-specific body and dispatches it to the
// handler.
func handleCall(h Handler, kind byte, r *reader, wm *workerMetrics, opts WorkerOptions) callReply {
	switch kind {
	case callUpdate:
		epoch := int64(r.uvarint())
		floor := int64(r.uvarint())
		gp, frags, rep := parseFragmentShip(r)
		if rep != nil {
			return *rep
		}
		if err := h.ApplyUpdate(epoch, floor, gp, frags); err != nil {
			return callReply{err: err}
		}
		if wm != nil {
			wm.epochs.Inc()
		}
		opts.loga(slog.LevelInfo, "installed update epoch",
			"epoch", epoch, "floor", floor, "fragments", len(frags))
		return callReply{}
	case callAdopt:
		epoch := int64(r.uvarint())
		gp, frags, rep := parseFragmentShip(r)
		if rep != nil {
			return *rep
		}
		if err := h.Adopt(epoch, gp, frags); err != nil {
			return callReply{err: err}
		}
		opts.loga(slog.LevelInfo, "adopted fragments",
			"epoch", epoch, "fragments", len(frags))
		return callReply{}
	case callRelease:
		rank := int(r.uvarint())
		if r.err != nil {
			return callReply{err: r.err}
		}
		if err := h.ReleaseFragment(rank); err != nil {
			return callReply{err: err}
		}
		opts.loga(slog.LevelInfo, "released fragment", "rank", rank)
		return callReply{}
	}

	rank := int(r.uvarint())
	query := r.uvarint()
	opts.loga(slog.LevelDebug, "serving call",
		"kind", callKindName(kind), "rank", rank, "query", query)
	switch kind {
	case callPEval:
		superstep := int(r.uvarint())
		epoch := int64(r.uvarint())
		flags := r.u8()
		prog := r.str()
		// Copied out of the pooled frame buffer: the handler receives the
		// query bytes across an interface boundary and owes no promise about
		// when it consumes them.
		queryBytes := append([]byte(nil), r.bytes()...)
		if r.err != nil {
			return callReply{err: r.err}
		}
		envs, err := h.PEval(rank, query, epoch, prog, queryBytes, superstep, flags&1 != 0, flags&2 != 0)
		if err != nil {
			return callReply{err: err}
		}
		return callReply{body: appendEnvelopes(nil, envs)}
	case callIncEval:
		superstep := int(r.uvarint())
		envs := r.envelopes()
		if r.err != nil {
			return callReply{err: r.err}
		}
		out, err := h.IncEval(rank, query, superstep, envs)
		if err != nil {
			return callReply{err: err}
		}
		return callReply{body: appendEnvelopes(nil, out)}
	case callFetch:
		if r.err != nil {
			return callReply{err: r.err}
		}
		data, err := h.Fetch(rank, query)
		if err != nil {
			return callReply{err: err}
		}
		return callReply{body: data}
	case callEnd:
		if r.err != nil {
			return callReply{err: r.err}
		}
		if err := h.End(rank, query); err != nil {
			return callReply{err: err}
		}
		return callReply{}
	case callMaterialize:
		if r.err != nil {
			return callReply{err: r.err}
		}
		if err := h.Materialize(rank, query); err != nil {
			return callReply{err: err}
		}
		return callReply{}
	case callEvalDelta:
		superstep := int(r.uvarint())
		opsBytes := r.bytes()
		newInBorder := r.vertexIDs()
		if r.err != nil {
			return callReply{err: r.err}
		}
		ops, err := mpi.DecodeGraphUpdates(opsBytes)
		if err != nil {
			return callReply{err: err}
		}
		absorbed, envs, err := h.EvalDelta(rank, query, superstep, ops, newInBorder)
		if err != nil {
			return callReply{err: err}
		}
		body := []byte{0}
		if absorbed {
			body[0] = 1
		}
		return callReply{body: appendEnvelopes(body, envs)}
	case callCheckpoint:
		if r.err != nil {
			return callReply{err: r.err}
		}
		data, err := h.Checkpoint(rank, query)
		if err != nil {
			return callReply{err: err}
		}
		return callReply{body: data}
	case callRestore:
		epoch := int64(r.uvarint())
		prog := r.str()
		// Copied out of the pooled frame buffer: both byte slices cross the
		// handler interface and outlive this call.
		queryBytes := append([]byte(nil), r.bytes()...)
		state := append([]byte(nil), r.bytes()...)
		if r.err != nil {
			return callReply{err: r.err}
		}
		if err := h.Restore(rank, query, epoch, prog, queryBytes, state); err != nil {
			return callReply{err: err}
		}
		return callReply{}
	default:
		return callReply{err: fmt.Errorf("unknown call kind 0x%02x", kind)}
	}
}

// parseFragmentShip parses the shared tail of update and adopt calls: the
// encoded fragmentation graph followed by a counted list of
// [rank][fragBytes] pairs. A non-nil reply reports the parse failure.
func parseFragmentShip(r *reader) (*partition.FragGraph, []*partition.Fragment, *callReply) {
	gpBytes := r.bytes()
	n := r.count()
	if r.err != nil {
		return nil, nil, &callReply{err: r.err}
	}
	gp, err := partition.DecodeFragGraph(gpBytes)
	if err != nil {
		return nil, nil, &callReply{err: err}
	}
	frags := make([]*partition.Fragment, 0, n)
	for i := 0; i < n; i++ {
		rank := int(r.uvarint())
		fragBytes := r.bytes()
		if r.err != nil {
			return nil, nil, &callReply{err: r.err}
		}
		f, err := partition.DecodeFragment(fragBytes)
		if err != nil {
			return nil, nil, &callReply{err: fmt.Errorf("fragment %d: %w", rank, err)}
		}
		if f.ID != rank {
			return nil, nil, &callReply{err: fmt.Errorf("ship frame for rank %d carries fragment %d", rank, f.ID)}
		}
		frags = append(frags, f)
	}
	return gp, frags, nil
}

// errClosedBeforeWelcome marks a handshake whose connection the far side
// closed before the coordinator's welcome frame arrived.
var errClosedBeforeWelcome = errors.New("connection closed before the welcome frame")

// closedByPeer reports whether err is the far side closing the connection.
func closedByPeer(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// connect dials the coordinator and performs the handshake, all within one
// DialTimeout budget (zero means 30 seconds). Refused dials are retried with
// exponential backoff — workers may legitimately start before the
// coordinator listens — and so is a connection the far side closes before
// the welcome frame: a proxy or load balancer in front of a coordinator that
// is not serving yet accepts and then drops exactly like that. Every other
// handshake failure (a rejection, a version mismatch, a malformed frame, a
// timeout) is final.
func connect(ctx context.Context, addr string, opts WorkerOptions, wm *workerMetrics) (net.Conn, []int, []*partition.Fragment, *partition.FragGraph, error) {
	budget := opts.DialTimeout
	if budget <= 0 {
		budget = 30 * time.Second
	}
	deadline := time.Now().Add(budget)
	delay := 50 * time.Millisecond
	d := net.Dialer{Deadline: deadline}
	for attempt := 1; ; attempt++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetKeepAlive(true)
				_ = tc.SetKeepAlivePeriod(30 * time.Second)
			}
			stop := context.AfterFunc(ctx, func() { conn.Close() })
			ranks, frags, gp, herr := handshakeCoordinator(conn, opts)
			stop()
			if herr == nil {
				return conn, ranks, frags, gp, nil
			}
			conn.Close()
			if ctx.Err() == nil && !errors.Is(herr, errClosedBeforeWelcome) {
				return nil, nil, nil, nil, herr
			}
			err = herr
		}
		if ctx.Err() != nil {
			return nil, nil, nil, nil, ctx.Err()
		}
		if time.Now().Add(delay).After(deadline) {
			return nil, nil, nil, nil, fmt.Errorf("net: connecting to coordinator %s: %w", addr, err)
		}
		wm.dialRetries.Inc()
		obsDialRetries.Inc()
		opts.loga(slog.LevelInfo, "connecting failed; retrying",
			"addr", addr, "attempt", attempt, "err", err, "retry_in", delay)
		pause := time.NewTimer(delay)
		select {
		case <-pause.C:
		case <-ctx.Done():
			pause.Stop()
			return nil, nil, nil, nil, ctx.Err()
		}
		if delay *= 2; delay > 2*time.Second {
			delay = 2 * time.Second
		}
	}
}

// handshakeCoordinator performs the worker's half of the handshake and
// returns the assigned ranks, the decoded fragments and the fragmentation
// graph.
func handshakeCoordinator(conn net.Conn, opts WorkerOptions) ([]int, []*partition.Fragment, *partition.FragGraph, error) {
	conn.SetDeadline(time.Now().Add(handshakeIOTimeout))
	hello := []byte{ftHello}
	hello = binary.AppendUvarint(hello, ProtocolVersion)
	var flags byte
	if opts.Join {
		flags |= helloJoin
	}
	hello = append(hello, flags)
	if err := writeFrame(conn, hello); err != nil {
		if closedByPeer(err) {
			return nil, nil, nil, fmt.Errorf("net: sending hello: %w: %w", errClosedBeforeWelcome, err)
		}
		return nil, nil, nil, fmt.Errorf("net: sending hello: %w", err)
	}

	payload, err := readFrame(conn)
	if err != nil {
		if closedByPeer(err) {
			return nil, nil, nil, fmt.Errorf("net: awaiting welcome: %w: %w", errClosedBeforeWelcome, err)
		}
		return nil, nil, nil, fmt.Errorf("net: awaiting welcome: %w", err)
	}
	r := &reader{buf: payload}
	switch ft := r.u8(); ft {
	case ftWelcome:
	case ftError:
		return nil, nil, nil, fmt.Errorf("net: coordinator rejected handshake: %s", r.str())
	default:
		return nil, nil, nil, fmt.Errorf("net: expected welcome frame, got 0x%02x", ft)
	}
	if v := r.uvarint(); r.err == nil && v != ProtocolVersion {
		return nil, nil, nil, fmt.Errorf("net: protocol version mismatch: coordinator speaks %d, worker speaks %d", v, ProtocolVersion)
	}
	m := int(r.uvarint())
	proc := int(r.uvarint())
	nRanks := r.count()
	ranks := make([]int, 0, nRanks)
	for i := 0; i < nRanks && r.err == nil; i++ {
		ranks = append(ranks, int(r.uvarint()))
	}
	if r.err != nil {
		return nil, nil, nil, fmt.Errorf("net: malformed welcome: %w", r.err)
	}
	opts.loga(slog.LevelInfo, "welcome",
		"fragments", m, "proc", proc, "ranks", ranks)

	payload, err = readFrame(conn)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("net: receiving fragmentation graph: %w", err)
	}
	r = &reader{buf: payload}
	if ft := r.u8(); ft != ftFragGfx {
		return nil, nil, nil, fmt.Errorf("net: expected fragmentation-graph frame, got 0x%02x", ft)
	}
	gp, err := partition.DecodeFragGraph(r.rest())
	if err != nil {
		return nil, nil, nil, fmt.Errorf("net: %w", err)
	}

	frags := make([]*partition.Fragment, 0, len(ranks))
	for range ranks {
		payload, err = readFrame(conn)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("net: receiving fragment: %w", err)
		}
		r = &reader{buf: payload}
		if ft := r.u8(); ft != ftFragment {
			return nil, nil, nil, fmt.Errorf("net: expected fragment frame, got 0x%02x", ft)
		}
		rank := int(r.uvarint())
		frag, err := partition.DecodeFragment(r.rest())
		if err != nil {
			return nil, nil, nil, fmt.Errorf("net: fragment %d: %w", rank, err)
		}
		if frag.ID != rank {
			return nil, nil, nil, fmt.Errorf("net: fragment frame for rank %d carries fragment %d", rank, frag.ID)
		}
		frags = append(frags, frag)
	}
	return ranks, frags, gp, nil
}
