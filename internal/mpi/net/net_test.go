package net_test

import (
	"math/rand"
	stdnet "net"
	"reflect"
	"sync"
	"testing"
	"time"

	"grape/internal/core"
	"grape/internal/graph"
	grapenet "grape/internal/mpi/net"
	"grape/internal/partition"
	"grape/internal/pie"
)

func randomGraph(t *testing.T, n, extra int, seed int64) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(false)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n), 1+r.Float64()*3, "")
	}
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), 0.5+r.Float64()*5, "")
		}
	}
	return b.Build()
}

// startWorkers launches procs worker loops (full dial/handshake/serve path
// over real TCP) against addr and returns a wait function asserting clean
// exits.
func startWorkers(t *testing.T, addr string, procs int) func() {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for i := 0; i < procs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			host := core.NewWorkerHost(pie.ByName)
			errs[i] = grapenet.RunWorker(addr, host, grapenet.WorkerOptions{DialTimeout: 10 * time.Second})
		}(i)
	}
	return func() {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}
	}
}

// TestEngineOverTCP runs SSSP and CC through core sessions whose fragments
// live behind the TCP transport, on both planes, and compares against local
// evaluation.
func TestEngineOverTCP(t *testing.T) {
	const m, procs = 5, 3
	g := randomGraph(t, 150, 250, 11)
	p := partition.Partition(g, m, partition.Hash{})

	localS, err := core.NewSessionPartitioned(p, core.Options{})
	if err != nil {
		t.Fatalf("local session: %v", err)
	}
	defer localS.Close()
	wantSSSP, err := localS.Run(graph.VertexID(3), pie.SSSP{})
	if err != nil {
		t.Fatalf("local SSSP: %v", err)
	}
	wantCC, err := localS.Run(nil, pie.CC{})
	if err != nil {
		t.Fatalf("local CC: %v", err)
	}

	ln, err := grapenet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	waitWorkers := startWorkers(t, ln.Addr(), procs)
	cl, err := ln.Serve(p, procs, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if cl.Procs() != procs || cl.NumWorkers() != m {
		t.Fatalf("cluster reports %d procs / %d workers, want %d / %d", cl.Procs(), cl.NumWorkers(), procs, m)
	}
	peers := make([]core.RemotePeer, m)
	for i := range peers {
		peers[i] = cl.Peer(i)
	}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, peers)
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	defer waitWorkers()
	defer s.Close()
	if !s.Distributed() {
		t.Fatalf("remote session does not report Distributed")
	}

	for _, mode := range []core.ExecMode{core.ModeBSP, core.ModeAsync} {
		res, err := s.RunMode(graph.VertexID(3), pie.SSSP{}, mode)
		if err != nil {
			t.Fatalf("%v SSSP over TCP: %v", mode, err)
		}
		if !reflect.DeepEqual(res.Output, wantSSSP.Output) {
			t.Fatalf("%v SSSP over TCP differs from local answer", mode)
		}
		if res.Stats.MessagesSent == 0 {
			t.Fatalf("%v SSSP over TCP exchanged no messages", mode)
		}
		res, err = s.RunMode(nil, pie.CC{}, mode)
		if err != nil {
			t.Fatalf("%v CC over TCP: %v", mode, err)
		}
		if !reflect.DeepEqual(res.Output, wantCC.Output) {
			t.Fatalf("%v CC over TCP differs from local answer", mode)
		}
	}

	// Concurrent queries over the same TCP cluster (distinct query ids
	// multiplexed over the same connections).
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Run(graph.VertexID(i), pie.SSSP{})
			if err != nil {
				errCh <- err
				return
			}
			if len(res.Output.(map[graph.VertexID]float64)) != g.NumVertices() {
				errCh <- err
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent query over TCP: %v", err)
	}
}

// TestDynamicOverTCP drives the update plane end to end at the transport
// layer: a remote session absorbs update batches (fragment deltas shipped as
// epochs) while materialized SSSP and CC views are maintained on the worker
// side, and every answer is compared against an in-process session absorbing
// the same stream.
func TestDynamicOverTCP(t *testing.T) {
	const m, procs = 4, 2
	g := randomGraph(t, 80, 120, 31)
	p := partition.Partition(g, m, partition.Hash{})

	localS, err := core.NewSessionPartitioned(p, core.Options{})
	if err != nil {
		t.Fatalf("local session: %v", err)
	}
	defer localS.Close()

	ln, err := grapenet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	waitWorkers := startWorkers(t, ln.Addr(), procs)
	cl, err := ln.Serve(p, procs, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	peers := make([]core.RemotePeer, m)
	for i := range peers {
		peers[i] = cl.Peer(i)
	}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, peers)
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	defer waitWorkers()
	defer s.Close()

	wantView, err := localS.Materialize(graph.VertexID(0), pie.SSSP{})
	if err != nil {
		t.Fatalf("local Materialize: %v", err)
	}
	gotView, err := s.Materialize(graph.VertexID(0), pie.SSSP{})
	if err != nil {
		t.Fatalf("remote Materialize: %v", err)
	}

	batches := [][]graph.Update{
		{graph.AddEdgeUpdate(0, 55, 0.25, ""), graph.AddEdgeUpdate(55, 70, 0.25, "")}, // incremental
		{graph.AddVertexUpdate(200, "new"), graph.AddEdgeUpdate(200, 3, 1, "")},       // new vertex
		{graph.RemoveEdgeUpdate(0, 55)},                                               // forces recompute
		{graph.ReweightEdgeUpdate(55, 70, 0.125)},                                     // decrease: incremental
	}
	for i, batch := range batches {
		if _, err := localS.ApplyUpdates(batch); err != nil {
			t.Fatalf("local batch %d: %v", i, err)
		}
		st, err := s.ApplyUpdates(batch)
		if err != nil {
			t.Fatalf("remote batch %d: %v", i, err)
		}
		if st.Epoch != int64(i+1) {
			t.Fatalf("remote batch %d installed epoch %d", i, st.Epoch)
		}
		want, err := wantView.Result()
		if err != nil {
			t.Fatalf("local view after batch %d: %v", i, err)
		}
		got, err := gotView.Result()
		if err != nil {
			t.Fatalf("remote view after batch %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("remote view differs from local after batch %d", i)
		}
	}
	vs := gotView.Stats()
	if vs.Incremental == 0 || vs.Recomputed == 0 {
		t.Fatalf("remote maintenance did not exercise both paths: %+v", vs)
	}

	// Fresh queries over the updated epoch, both planes, match local ones.
	for _, mode := range []core.ExecMode{core.ModeBSP, core.ModeAsync} {
		want, err := localS.RunMode(graph.VertexID(0), pie.SSSP{}, mode)
		if err != nil {
			t.Fatalf("local post-update SSSP: %v", err)
		}
		got, err := s.RunMode(graph.VertexID(0), pie.SSSP{}, mode)
		if err != nil {
			t.Fatalf("remote post-update SSSP (%v): %v", mode, err)
		}
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("post-update SSSP (%v) differs from local", mode)
		}
	}
	if err := gotView.Close(); err != nil {
		t.Fatalf("closing remote view: %v", err)
	}
}

// TestWorkerDialBackoff starts the worker before anything listens on the
// coordinator port: the dial retry loop must carry it into the handshake
// once the coordinator appears.
func TestWorkerDialBackoff(t *testing.T) {
	// Reserve a port, then release it so the worker's first dials fail.
	probe, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	addr := probe.Addr().String()
	probe.Close()

	waitWorkers := startWorkers(t, addr, 1)
	time.Sleep(300 * time.Millisecond) // let a few dial attempts fail

	g := randomGraph(t, 40, 40, 2)
	p := partition.Partition(g, 2, partition.Hash{})
	ln, err := grapenet.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s): %v", addr, err)
	}
	cl, err := ln.Serve(p, 1, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	peers := []core.RemotePeer{cl.Peer(0), cl.Peer(1)}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, peers)
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	res, err := s.Run(graph.VertexID(0), pie.SSSP{})
	if err != nil {
		t.Fatalf("SSSP after backoff: %v", err)
	}
	if len(res.Output.(map[graph.VertexID]float64)) != g.NumVertices() {
		t.Fatalf("incomplete SSSP answer after backoff")
	}
	s.Close()
	waitWorkers()
}

// TestWorkerRedialsAfterEarlyClose: a connection the far side closes before
// the welcome frame — what a proxy or load balancer in front of a coordinator
// that is not serving yet does — is retried within DialTimeout, like a
// refused dial, instead of failing the worker.
func TestWorkerRedialsAfterEarlyClose(t *testing.T) {
	pre, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := pre.Addr().String()
	waitWorkers := startWorkers(t, addr, 1)

	// Take the worker's first connection, wait for its hello to start
	// arriving, and drop it before any welcome is sent.
	conn, err := pre.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatalf("reading the worker's hello: %v", err)
	}
	conn.Close()
	pre.Close()

	g := randomGraph(t, 40, 40, 3)
	p := partition.Partition(g, 2, partition.Hash{})
	ln, err := grapenet.Listen(addr)
	if err != nil {
		t.Fatalf("Listen(%s): %v", addr, err)
	}
	cl, err := ln.Serve(p, 1, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve after the dropped connection: %v", err)
	}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, []core.RemotePeer{cl.Peer(0), cl.Peer(1)})
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	res, err := s.Run(graph.VertexID(0), pie.SSSP{})
	if err != nil {
		t.Fatalf("SSSP after redial: %v", err)
	}
	if len(res.Output.(map[graph.VertexID]float64)) != g.NumVertices() {
		t.Fatalf("incomplete SSSP answer after redial")
	}
	s.Close()
	waitWorkers()
}

// TestGracefulShutdown: closing the session sends the shutdown frame and
// every worker loop returns nil (asserted by startWorkers' waiter); double
// Close stays idempotent.
func TestGracefulShutdown(t *testing.T) {
	g := randomGraph(t, 30, 20, 9)
	p := partition.Partition(g, 2, partition.Hash{})
	ln, err := grapenet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	waitWorkers := startWorkers(t, ln.Addr(), 2)
	cl, err := ln.Serve(p, 2, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, []core.RemotePeer{cl.Peer(0), cl.Peer(1)})
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	waitWorkers()
}

// TestLocalOnlyProgramRejected: a program without wire codecs fails fast at
// the coordinator, before any call crosses the wire.
func TestLocalOnlyProgramRejected(t *testing.T) {
	g := randomGraph(t, 30, 20, 4)
	p := partition.Partition(g, 2, partition.Hash{})
	ln, err := grapenet.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	waitWorkers := startWorkers(t, ln.Addr(), 2)
	cl, err := ln.Serve(p, 2, 10*time.Second)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	s, err := core.NewSessionRemote(p, core.Options{}, cl, []core.RemotePeer{cl.Peer(0), cl.Peer(1)})
	if err != nil {
		t.Fatalf("NewSessionRemote: %v", err)
	}
	defer waitWorkers()
	defer s.Close()

	pb := graph.NewBuilder(true)
	pb.AddEdge(1, 2, 1, "")
	if _, err := s.Run(pb.Build(), pie.Sim{}); err == nil {
		t.Fatalf("Sim accepted on a distributed session")
	}
}
