package grape

// Fault-tolerance acceptance tests: a TCP cluster with Options.Recovery set
// must answer queries correctly — byte-identically for SSSP and CC — after a
// worker process is killed mid-query, after a kill between queries, and after
// an update batch whose delta ship hit the dead process. The elastic half is
// covered too: a worker that joins mid-session receives fragments through
// rebalancing and can take over the whole graph when every founding worker
// dies.
//
// Workers run as in-process goroutines, so a "kill" cannot be a signal;
// instead each worker dials the coordinator through a killableProxy and a
// kill severs every TCP connection the proxy carried — exactly what the
// coordinator observes when a worker process dies.

import (
	"errors"
	"io"
	stdnet "net"
	"reflect"
	"sync"
	"testing"
	"time"

	"grape/internal/obs"
	"grape/internal/pie"
)

// killableProxy forwards TCP connections to a backend address; Kill severs
// every connection it carried (and refuses new ones), which the far side
// observes as an abrupt connection loss — a worker-process crash. The
// workers dial the proxy before the coordinator listens, so a connection
// accepted before SetBackend waits for the backend instead of being dropped.
type killableProxy struct {
	ln    stdnet.Listener
	ready chan struct{} // closed by the first SetBackend
	dead  chan struct{} // closed by the first Kill

	mu      sync.Mutex
	backend string
	conns   []stdnet.Conn
	killed  bool
}

func newKillableProxy(t *testing.T) *killableProxy {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &killableProxy{ln: ln, ready: make(chan struct{}), dead: make(chan struct{})}
	go p.accept()
	t.Cleanup(p.Kill)
	return p
}

func (p *killableProxy) Addr() string { return p.ln.Addr().String() }

func (p *killableProxy) SetBackend(addr string) {
	p.mu.Lock()
	first := p.backend == ""
	p.backend = addr
	p.mu.Unlock()
	if first {
		close(p.ready)
	}
}

func (p *killableProxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		select {
		case <-p.ready:
		case <-p.dead:
			conn.Close()
			return
		}
		p.mu.Lock()
		backend, killed := p.backend, p.killed
		p.mu.Unlock()
		if killed {
			conn.Close()
			continue
		}
		up, err := stdnet.Dial("tcp", backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.killed {
			p.mu.Unlock()
			conn.Close()
			up.Close()
			continue
		}
		p.conns = append(p.conns, conn, up)
		p.mu.Unlock()
		go func() { io.Copy(up, conn); up.Close() }()
		go func() { io.Copy(conn, up); conn.Close() }()
	}
}

// Kill severs every proxied connection and refuses new ones. Idempotent.
func (p *killableProxy) Kill() {
	p.mu.Lock()
	if !p.killed {
		close(p.dead)
	}
	p.killed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}

// recoveryCluster is a distributed session whose worker processes each dial
// the coordinator through their own killable proxy.
type recoveryCluster struct {
	s       *Session
	addr    string // the coordinator's real address, for joiners
	proxies []*killableProxy
	wg      sync.WaitGroup
	errs    []error
}

func startRecoveryCluster(t *testing.T, g *Graph, workers, procs int, rec *Recovery) *recoveryCluster {
	t.Helper()
	rc := &recoveryCluster{
		proxies: make([]*killableProxy, procs),
		errs:    make([]error, procs),
	}
	for i := range rc.proxies {
		rc.proxies[i] = newKillableProxy(t)
	}
	addrCh := make(chan string, 1)
	opts := Options{
		Workers:  workers,
		Recovery: rec,
		Distributed: &Distributed{
			Listen:           "127.0.0.1:0",
			WorkerProcs:      procs,
			HandshakeTimeout: 30 * time.Second,
			OnListen: func(addr string) {
				for _, p := range rc.proxies {
					p.SetBackend(addr)
				}
				addrCh <- addr
			},
		},
	}
	for i := 0; i < procs; i++ {
		rc.wg.Add(1)
		go func(i int) {
			defer rc.wg.Done()
			rc.errs[i] = ServeWorker(rc.proxies[i].Addr(), WorkerOptions{DialTimeout: 10 * time.Second})
		}(i)
	}
	s, err := NewSession(g, opts)
	if err != nil {
		t.Fatalf("NewSession(recovery cluster): %v", err)
	}
	rc.s = s
	rc.addr = <-addrCh
	return rc
}

// waitWorkers blocks until every worker goroutine exits and asserts the ones
// not listed in killed exited cleanly (killed workers exit with a connection
// error, which is their expected fate).
func (rc *recoveryCluster) waitWorkers(t *testing.T, killed ...int) {
	t.Helper()
	rc.wg.Wait()
	for i, err := range rc.errs {
		wasKilled := false
		for _, k := range killed {
			if i == k {
				wasKilled = true
			}
		}
		if !wasKilled && err != nil {
			t.Errorf("surviving worker %d exited with error: %v", i, err)
		}
	}
}

// counterValue reads an unlabeled counter from the default obs registry.
func counterValue(name string) float64 {
	for _, s := range obs.Default.Gather() {
		if s.Name == name && len(s.Labels) == 0 {
			return s.Value
		}
	}
	return 0
}

func awaitCounterAbove(t *testing.T, name string, floor float64, timeout time.Duration, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for counterValue(name) <= floor {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s still at %v after %v", what, name, counterValue(name), timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoveryKillMidQuery is the headline acceptance check: killing one
// worker process of a 3-process TCP cluster while a long SSSP is in flight
// must still produce the byte-identical answer of a healthy in-process run —
// the coordinator reassigns the dead process's fragments to survivors and
// restarts the run from its last checkpointed cut. A follow-up CC must be
// exact too, and across the kill at least one query must report a restart.
func TestRecoveryKillMidQuery(t *testing.T) {
	const workers, procs = 6, 3
	// A pure ring makes SSSP take ~n/2 frontier hops: hundreds of supersteps,
	// so the kill lands mid-query and several checkpoints exist before it.
	g := distributedGraph(false, 1200, 0, 11)

	local, err := NewSession(g, Options{Workers: workers})
	if err != nil {
		t.Fatalf("NewSession(local): %v", err)
	}
	defer local.Close()
	wantD, _, err := local.SSSP(0)
	if err != nil {
		t.Fatalf("local SSSP: %v", err)
	}
	wantC, _, err := local.CC()
	if err != nil {
		t.Fatalf("local CC: %v", err)
	}

	rc := startRecoveryCluster(t, g, workers, procs, &Recovery{Interval: 8})
	defer rc.waitWorkers(t, 0)
	defer rc.s.Close()

	type runRes struct {
		res *Result
		err error
	}
	done := make(chan runRes, 1)
	go func() {
		res, err := rc.s.Run(pie.SSSP{}, VertexID(0))
		done <- runRes{res, err}
	}()
	time.Sleep(100 * time.Millisecond)
	rc.proxies[0].Kill()

	var restarts int
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("SSSP across a worker kill: %v", r.err)
		}
		if got := r.res.Output.(map[VertexID]float64); !reflect.DeepEqual(got, wantD) {
			t.Fatalf("SSSP answer after mid-query kill differs from healthy run")
		}
		restarts += r.res.Restarts
	case <-time.After(60 * time.Second):
		t.Fatalf("SSSP never returned after the kill")
	}

	// Whether or not the kill landed mid-query, the next query runs against a
	// cluster that lost a process — it must answer exactly, and by now at
	// least one of the two runs must have gone through a restart.
	res, err := rc.s.Run(pie.SSSP{}, VertexID(0))
	if err != nil {
		t.Fatalf("SSSP after recovery: %v", err)
	}
	if got := res.Output.(map[VertexID]float64); !reflect.DeepEqual(got, wantD) {
		t.Fatalf("post-recovery SSSP differs from healthy run")
	}
	restarts += res.Restarts
	if restarts == 0 {
		t.Fatalf("no query restarted across a worker kill; recovery path not exercised")
	}

	gotC, _, err := rc.s.CC()
	if err != nil {
		t.Fatalf("CC after recovery: %v", err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("post-recovery CC differs from healthy run")
	}
}

// TestRecoveryKillThenUpdate kills a worker while the cluster is idle and
// then applies an update batch first: the delta ship hits the dead process,
// recovery re-homes its fragments at the new epoch, the batch installs, and
// both a materialized CC view (forced to a full recompute — its worker-side
// state died with the process) and fresh queries agree with an in-process
// session absorbing the same batch.
func TestRecoveryKillThenUpdate(t *testing.T) {
	const workers, procs = 4, 2
	g := distributedGraph(false, 200, 300, 23)

	local, err := NewSession(g, Options{Workers: workers})
	if err != nil {
		t.Fatalf("NewSession(local): %v", err)
	}
	defer local.Close()
	localCC, err := local.MaterializeCC()
	if err != nil {
		t.Fatalf("local MaterializeCC: %v", err)
	}

	rc := startRecoveryCluster(t, g, workers, procs, &Recovery{})
	defer rc.waitWorkers(t, 1)
	defer rc.s.Close()
	distCC, err := rc.s.MaterializeCC()
	if err != nil {
		t.Fatalf("distributed MaterializeCC: %v", err)
	}

	rc.proxies[1].Kill()

	batch := []Update{
		EdgeInsert(3, 177, 0.25),
		EdgeDelete(5, 6),
		VertexAdd(1000, ""),
		EdgeInsert(1000, 50, 1.5),
	}
	if _, err := local.ApplyUpdates(batch); err != nil {
		t.Fatalf("local ApplyUpdates: %v", err)
	}
	if _, err := rc.s.ApplyUpdates(batch); err != nil {
		t.Fatalf("ApplyUpdates across a dead worker: %v", err)
	}
	if got, want := rc.s.Epoch(), local.Epoch(); got != want {
		t.Fatalf("epoch = %d after recovered update, want %d", got, want)
	}

	wantC, err := localCC.Components()
	if err != nil {
		t.Fatalf("local CC view: %v", err)
	}
	gotC, err := distCC.Components()
	if err != nil {
		t.Fatalf("distributed CC view after recovered update: %v", err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("CC view differs from in-process after a recovered update")
	}

	wantD, _, err := local.SSSP(0)
	if err != nil {
		t.Fatalf("local SSSP: %v", err)
	}
	gotD, _, err := rc.s.SSSP(0)
	if err != nil {
		t.Fatalf("distributed SSSP after recovered update: %v", err)
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("SSSP differs from in-process after a recovered update")
	}

	// A second batch exercises the ordinary (post-recovery) update path.
	batch2 := []Update{EdgeInsert(10, 90, 0.75)}
	if _, err := local.ApplyUpdates(batch2); err != nil {
		t.Fatalf("local second batch: %v", err)
	}
	if _, err := rc.s.ApplyUpdates(batch2); err != nil {
		t.Fatalf("second batch after recovery: %v", err)
	}
	wantC, _ = localCC.Components()
	gotC, err = distCC.Components()
	if err != nil {
		t.Fatalf("CC view after second batch: %v", err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("CC view differs after the post-recovery batch")
	}
}

// TestRecoveryJoinTakeover covers the elastic half end to end through the
// facade: a worker started with Join: true enters the running cluster and
// receives fragments through rebalancing; when every founding worker then
// dies, recovery re-homes the whole graph onto the joiner and queries still
// answer byte-identically.
func TestRecoveryJoinTakeover(t *testing.T) {
	const workers, procs = 4, 2
	g := distributedGraph(false, 250, 400, 31)

	local, err := NewSession(g, Options{Workers: workers})
	if err != nil {
		t.Fatalf("NewSession(local): %v", err)
	}
	defer local.Close()
	wantD, _, err := local.SSSP(0)
	if err != nil {
		t.Fatalf("local SSSP: %v", err)
	}
	wantC, _, err := local.CC()
	if err != nil {
		t.Fatalf("local CC: %v", err)
	}

	rc := startRecoveryCluster(t, g, workers, procs, &Recovery{})
	defer rc.waitWorkers(t, 0, 1)
	defer rc.s.Close()

	gotD, _, err := rc.s.SSSP(0)
	if err != nil {
		t.Fatalf("healthy distributed SSSP: %v", err)
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("healthy distributed SSSP differs from in-process")
	}

	// Join a third worker mid-session and wait until rebalancing has moved at
	// least one fragment onto it (observable as the moved-fragments counter
	// advancing — the join handler runs the rebalance synchronously, so moves
	// imply the join completed too).
	movedFloor := counterValue("grape_net_fragments_moved_total")
	joinErr := make(chan error, 1)
	go func() {
		joinErr <- ServeWorker(rc.addr, WorkerOptions{DialTimeout: 10 * time.Second, Join: true})
	}()
	awaitCounterAbove(t, "grape_net_fragments_moved_total", movedFloor, 15*time.Second, "join rebalance")

	// The rebalanced cluster still answers exactly.
	gotD, _, err = rc.s.SSSP(0)
	if err != nil {
		t.Fatalf("SSSP after join: %v", err)
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("SSSP after join differs from in-process")
	}

	// Kill both founding workers: every fragment they still host must be
	// re-homed onto the joiner, which becomes the whole cluster.
	rc.proxies[0].Kill()
	rc.proxies[1].Kill()
	res, err := rc.s.Run(pie.SSSP{}, VertexID(0))
	if err != nil {
		t.Fatalf("SSSP after founding workers died: %v", err)
	}
	if got := res.Output.(map[VertexID]float64); !reflect.DeepEqual(got, wantD) {
		t.Fatalf("SSSP on the joiner-only cluster differs from in-process")
	}
	if res.Restarts == 0 {
		t.Fatalf("takeover query reported no restarts")
	}
	gotC, _, err := rc.s.CC()
	if err != nil {
		t.Fatalf("CC on the joiner-only cluster: %v", err)
	}
	if !reflect.DeepEqual(gotC, wantC) {
		t.Fatalf("CC on the joiner-only cluster differs from in-process")
	}

	// Closing the session shuts the joiner down cleanly.
	if err := rc.s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-joinErr:
		if err != nil {
			t.Fatalf("joined worker exited with error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("joined worker never exited after Close")
	}
}

// TestRecoveryZeroValueIsFailStop: without Options.Recovery a worker death
// keeps the historical fail-stop contract — the query errors with a typed
// *WorkerLostError naming the process's fragments, and nothing is retried.
func TestRecoveryZeroValueIsFailStop(t *testing.T) {
	const workers, procs = 4, 2
	g := distributedGraph(false, 600, 0, 3)

	rc := startRecoveryCluster(t, g, workers, procs, nil)
	defer rc.waitWorkers(t, 0)
	defer rc.s.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := rc.s.SSSP(0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	rc.proxies[0].Kill()

	select {
	case err := <-done:
		if err == nil {
			// The query beat the kill; the next one must hit the dead conn.
			if _, _, err = rc.s.SSSP(0); err == nil {
				t.Fatalf("query on a fail-stop cluster with a dead worker succeeded")
			}
		}
		var lost *WorkerLostError
		if !errors.As(err, &lost) {
			t.Fatalf("fail-stop error is not a *WorkerLostError: %v", err)
		}
		if len(lost.Fragments) == 0 {
			t.Fatalf("WorkerLostError carries no fragments: %+v", lost)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("fail-stop query never returned after the kill")
	}
}
