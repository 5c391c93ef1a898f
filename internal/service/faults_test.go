package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/data"
	"repro/internal/health"
)

// chaosProxy is a TCP-level fault injector sitting between the ring and
// one shard: every byte of that shard's traffic (requests, heartbeat
// probes, snapshot ships) flows through it, so closing, delaying, or
// stalling the proxy is indistinguishable from the real network failing.
type chaosProxy struct {
	t       *testing.T
	ln      net.Listener
	target  string // backend host:port; may be empty in stall mode
	accepts atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]bool
	down  bool          // refuse service: accept then slam the connection
	delay time.Duration // sleep before forwarding a new connection
	stall int64         // > 0: swallow this many client bytes, then kill
}

func newChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &chaosProxy{t: t, ln: ln, target: target, conns: map[net.Conn]bool{}}
	go p.acceptLoop()
	t.Cleanup(func() {
		p.ln.Close()
		p.killActive()
	})
	return p
}

// addr is the shard address the ring sees: the proxy's listener.
func (p *chaosProxy) addr() string { return "http://" + p.ln.Addr().String() }

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.accepts.Add(1)
		p.mu.Lock()
		down, delay, stall := p.down, p.delay, p.stall
		if !down {
			p.conns[c] = true
		}
		p.mu.Unlock()
		if down {
			c.Close()
			continue
		}
		go p.handle(c, delay, stall)
	}
}

func (p *chaosProxy) handle(c net.Conn, delay time.Duration, stall int64) {
	defer p.forget(c)
	if delay > 0 {
		time.Sleep(delay)
	}
	if stall > 0 {
		// Consume part of the request so the sender has committed bytes,
		// then die without ever answering — the nastiest mid-send failure.
		io.CopyN(io.Discard, c, stall)
		c.Close()
		return
	}
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		c.Close()
		return
	}
	p.track(up)
	defer p.forget(up)
	done := make(chan struct{}, 2)
	pump := func(dst, src net.Conn) {
		io.Copy(dst, src)
		if tc, ok := dst.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}
	go pump(up, c)
	go pump(c, up)
	<-done
	<-done
	c.Close()
	up.Close()
}

func (p *chaosProxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = true
	p.mu.Unlock()
}

func (p *chaosProxy) forget(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// setDown toggles refuse-service mode; going down also kills every
// in-flight and pooled connection so the failure is immediate, not
// deferred to the next keep-alive reuse.
func (p *chaosProxy) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
	if down {
		p.killActive()
	}
}

// setStall arms stall mode for new connections and kills existing ones,
// so the next request is guaranteed to hit the stall path instead of a
// pooled healthy connection.
func (p *chaosProxy) setStall(n int64) {
	p.mu.Lock()
	p.stall = n
	p.mu.Unlock()
	p.killActive()
}

// refuse tears the proxy's listener down entirely: new connections get
// ECONNREFUSED — a failure that is guaranteed to happen before a single
// request byte moves, unlike accept-then-close, which races with the
// sender's buffered writes. Terminal; the proxy cannot come back up.
func (p *chaosProxy) refuse() {
	p.ln.Close()
	p.killActive()
}

func (p *chaosProxy) killActive() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.conns = map[net.Conn]bool{}
	p.mu.Unlock()
}

// countingHandler counts requests per path prefix, so a test can prove a
// shard was (or was not) contacted without trusting service counters.
type countingHandler struct {
	next    http.Handler
	streams atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/assign/stream" {
		h.streams.Add(1)
	}
	h.next.ServeHTTP(w, r)
}

// chaosRing is a 3-shard rf=2 ring where shard 2's advertised address is
// a chaos proxy: shards 0 and 1 are reached directly, every byte to or
// from shard 2 crosses the fault injector.
type chaosRing struct {
	*ringHarness
	proxy    *chaosProxy
	counters []*countingHandler
}

func startChaosRing(t *testing.T) *chaosRing {
	t.Helper()
	h := &ringHarness{t: t}
	for i := 0; i < 3; i++ {
		srv := httptest.NewUnstartedServer(nil)
		h.servers = append(h.servers, srv)
	}
	proxy := newChaosProxy(t, h.servers[2].Listener.Addr().String())
	h.addrs = []string{
		"http://" + h.servers[0].Listener.Addr().String(),
		"http://" + h.servers[1].Listener.Addr().String(),
		proxy.addr(),
	}
	cr := &chaosRing{ringHarness: h, proxy: proxy}
	for i := 0; i < 3; i++ {
		svc := New(Options{Workers: 1, CacheSize: 16})
		rt, err := NewRouter(svc, h.addrs[i], h.addrs, RouterOptions{Vnodes: 128, RF: 2, Client: testClientOptions()})
		if err != nil {
			t.Fatal(err)
		}
		h.svcs = append(h.svcs, svc)
		h.routers = append(h.routers, rt)
		ch := &countingHandler{next: rt.Handler()}
		cr.counters = append(cr.counters, ch)
		h.servers[i].Config.Handler = ch
		h.servers[i].Start()
		h.clients = append(h.clients, NewClient(h.addrs[i], testClientOptions()))
	}
	t.Cleanup(func() {
		for _, s := range h.servers {
			s.Close()
		}
	})
	return cr
}

// monitorFor builds the heartbeat monitor for shard i exactly as
// cmd/dpcd wires it, but left un-started so tests drive Tick themselves
// and stay deterministic.
func (cr *chaosRing) monitorFor(i int) *health.Monitor {
	rt := cr.routers[i]
	return health.New(health.Config{
		Self:      rt.Self(),
		Timeout:   500 * time.Millisecond,
		DeadAfter: 2,
	}, rt.ConfiguredPeers, health.HTTPProbe(nil), func(live []string) {
		rt.SetLive(live)
	})
}

// TestChaosHeartbeatEvictsDeadShard is the tentpole fault-injection
// scenario in-process: a shard's network dies; during the detection
// window every read already fails over to a replica; the heartbeat walks
// the shard suspect→dead and evicts it with zero refits; when the
// network heals, one good probe re-admits it and it still serves its
// original keys warm.
func TestChaosHeartbeatEvictsDeadShard(t *testing.T) {
	corpus := testCorpus(t, 6)
	cr := startChaosRing(t)
	for _, e := range corpus {
		cr.uploadCSV(0, e.name, e.csv)
		if _, err := cr.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	m0, m1 := cr.monitorFor(0), cr.monitorFor(1)
	ctx := context.Background()
	if m0.Tick(ctx) || m1.Tick(ctx) {
		t.Fatal("healthy ring produced a membership change on the first tick")
	}

	assignAll := func(via int) {
		t.Helper()
		for _, e := range corpus {
			resp, err := cr.clients[via].Assign(api.AssignRequest{
				FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
				Points:     e.probes,
			})
			if err != nil {
				t.Fatalf("assign %s via shard %d: %v", e.name, via, err)
			}
			if !resp.CacheHit {
				t.Errorf("assign %s via shard %d refit instead of hitting a warm replica", e.name, via)
			}
		}
	}

	missesBefore := cr.svcs[0].Stats().CacheMisses + cr.svcs[1].Stats().CacheMisses
	cr.proxy.setDown(true)

	// Detection window: no monitor has noticed yet, every key still
	// answers through the survivors — replica reads are the failover.
	assignAll(0)
	assignAll(1)

	// One tick: suspect, still live (a single lost probe must not flap
	// membership). Two: dead, evicted.
	if m0.Tick(ctx) {
		t.Fatal("first failed probe already changed membership; suspect must damp flaps")
	}
	if got := cr.routers[0].LiveMembers(); len(got) != 3 {
		t.Fatalf("suspect state shrank the live ring to %v", got)
	}
	if !m0.Tick(ctx) {
		t.Fatal("shard 0's monitor never evicted the dead shard")
	}
	m1.Tick(ctx) // m1's first failed probe: suspect
	if !m1.Tick(ctx) {
		t.Fatal("shard 1's monitor never evicted the dead shard")
	}
	for i := 0; i < 2; i++ {
		live := cr.routers[i].LiveMembers()
		if len(live) != 2 || contains(live, cr.proxy.addr()) {
			t.Fatalf("shard %d live ring = %v after eviction", i, live)
		}
	}

	// Post-eviction: everything serves from the survivors, warm.
	assignAll(0)
	assignAll(1)
	if misses := cr.svcs[0].Stats().CacheMisses + cr.svcs[1].Stats().CacheMisses; misses != missesBefore {
		t.Errorf("chaos round refit %d models on the survivors; want zero", misses-missesBefore)
	}

	// The stats fan-out marks the dead shard unreachable without sending
	// it a single byte: the proxy's accept counter must not move.
	acceptsBefore := cr.proxy.accepts.Load()
	agg, err := cr.clients[0].RingStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.Down) != 1 || agg.Down[0] != cr.proxy.addr() {
		t.Errorf("aggregate down list = %v, want the proxied shard", agg.Down)
	}
	found := false
	for _, ps := range agg.PerPeer {
		if ps.Peer == cr.proxy.addr() {
			found = ps.Unreachable
		}
	}
	if !found {
		t.Errorf("dead shard not marked unreachable: %+v", agg.PerPeer)
	}
	if got := cr.proxy.accepts.Load(); got != acceptsBefore {
		t.Errorf("stats fan-out opened %d connection(s) to a peer already known dead", got-acceptsBefore)
	}

	// Network heals: one good probe re-admits the shard, which kept its
	// data the whole time and serves it warm through the proxy again.
	cr.proxy.setDown(false)
	if !m0.Tick(ctx) || !m1.Tick(ctx) {
		t.Fatal("recovered shard was not re-admitted on its first good probe")
	}
	for i := 0; i < 2; i++ {
		if got := cr.routers[i].LiveMembers(); len(got) != 3 {
			t.Fatalf("shard %d live ring = %v after recovery", i, got)
		}
	}
	shard2Misses := cr.svcs[2].Stats().CacheMisses
	assignAll(2)
	if got := cr.svcs[2].Stats().CacheMisses; got != shard2Misses {
		t.Errorf("recovered shard refit %d models; its cache should have survived the partition", got-shard2Misses)
	}
}

// chaosKey finds a dataset key whose primary is the proxied shard and
// returns it with the replica and non-owner shard indexes — the exact
// topology the stream-relay fault tests need.
func (cr *chaosRing) chaosKey(t *testing.T) (name string, replica, nonOwner int) {
	t.Helper()
	for i := 0; i < 500; i++ {
		cand := fmt.Sprintf("chaos-%03d", i)
		owners := cr.routers[0].owners(cand)
		if owners[0] != cr.proxy.addr() {
			continue
		}
		for j := 0; j < 2; j++ {
			if owners[1] == cr.addrs[j] {
				return cand, j, 1 - j
			}
		}
	}
	t.Fatal("no candidate key hashed onto the proxied shard as primary; ring placement broken")
	return "", 0, 0
}

// TestChaosStreamNoRetryAfterPartialSend: a replica relay that has sent
// any request byte upstream must fail the stream rather than replay it.
// The primary dies mid-send (proxy swallows 8KB then kills the
// connection); the relay must answer 502 and never contact the second
// replica — the counting handler proves no retry happened.
func TestChaosStreamNoRetryAfterPartialSend(t *testing.T) {
	cr := startChaosRing(t)
	name, replica, nonOwner := cr.chaosKey(t)

	d := data.SSet(2, 400, 7)
	var buf bytes.Buffer
	if err := data.SaveCSV(&buf, d.Points); err != nil {
		t.Fatal(err)
	}
	cr.uploadCSV(nonOwner, name, buf.Bytes())
	params := api.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}
	req := api.FitRequest{Dataset: name, Algorithm: "Ex-DPC", Params: params}
	if _, err := cr.clients[nonOwner].Fit(req); err != nil {
		t.Fatal(err)
	}

	// A body big enough that the relay has certainly committed bytes
	// upstream by the time the proxy kills the connection at 8KB.
	pts := make([][]float64, 5000)
	for i := range pts {
		p := d.Points.At(i % d.Points.N)
		pts[i] = []float64{p[0], p[1]}
	}
	body := ndjsonPoints(t, pts)

	cr.proxy.setStall(8 << 10)
	streamsBefore := cr.counters[replica].streams.Load()
	sr, err := cr.clients[nonOwner].AssignStream(req, bytes.NewReader(body))
	if err == nil {
		sr.Close()
		t.Fatal("stream against a mid-send failure succeeded")
	}
	var se *api.APIError
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway ||
		!strings.Contains(se.Message, "stream not retried after partial send") {
		t.Fatalf("stream failure = %v, want 502 refusing the partial-send retry", err)
	}
	if got := cr.counters[replica].streams.Load(); got != streamsBefore {
		t.Fatalf("relay retried the consumed stream against the replica (%d new stream request(s))", got-streamsBefore)
	}

	// Same key, zero-consumed failure instead: the primary is down
	// outright, the dial fails before any byte moves, and now failover to
	// the replica is legal — the stream must succeed with warm labels.
	cr.proxy.refuse()
	want, err := cr.clients[nonOwner].Assign(api.AssignRequest{FitRequest: req, Points: pts[:50]})
	if err != nil {
		t.Fatalf("batch assign with dead primary: %v", err)
	}
	sr, err = cr.clients[nonOwner].AssignStream(req, bytes.NewReader(ndjsonPoints(t, pts[:50])))
	if err != nil {
		t.Fatalf("stream with dead primary (zero bytes consumed): %v", err)
	}
	labels, sum, err := sr.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 50 || !sum.CacheHit {
		t.Fatalf("failover stream: %d labels, summary %+v", len(labels), sum)
	}
	for i := range labels {
		if labels[i] != want.Labels[i] {
			t.Fatalf("failover label %d = %d, batch says %d", i, labels[i], want.Labels[i])
		}
	}
	if got := cr.counters[replica].streams.Load(); got != streamsBefore+1 {
		t.Fatalf("zero-consumed failover did not reach the replica exactly once (%d)", got-streamsBefore)
	}
}

// lateReadBody is an inbound request body that trickles its bytes out
// and counts every Read that was in flight when, or started after, the
// handler returned.
type lateReadBody struct {
	r     io.Reader
	chunk int
	delay time.Duration

	mu       sync.Mutex
	active   int
	returned bool
	late     int
}

func (b *lateReadBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	b.active++
	if b.returned {
		b.late++
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		b.active--
		b.mu.Unlock()
	}()
	time.Sleep(b.delay)
	if len(p) > b.chunk {
		p = p[:b.chunk]
	}
	return b.r.Read(p)
}

func (b *lateReadBody) Close() error { return nil }

func (b *lateReadBody) handlerReturned() {
	b.mu.Lock()
	b.returned = true
	b.late += b.active
	b.mu.Unlock()
}

func (b *lateReadBody) lateReads() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.late
}

// TestRelayStreamNoBodyReadAfterReturn: once a handler returns, the
// server owns the inbound body again (it drains it, then reads the next
// request off the connection), so a stream relay must not return while
// its upstream transport can still read that body. Here the replica
// rejects the stream's unknown dataset right after its header line; the
// relay copies that answer back while the transport's body writer is
// still sending the inbound stream.
func TestRelayStreamNoBodyReadAfterReturn(t *testing.T) {
	cr := startChaosRing(t)
	name, _, nonOwner := cr.chaosKey(t)
	header, err := json.Marshal(api.FitRequest{Dataset: name, Algorithm: "Ex-DPC",
		Params: api.Params{DCut: 1, RhoMin: 1, DeltaMin: 2}})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([][]float64, 20000)
	for i := range pts {
		pts[i] = []float64{float64(i), float64(2 * i)}
	}
	body := &lateReadBody{
		r:     bytes.NewReader(append(append(header, '\n'), ndjsonPoints(t, pts)...)),
		chunk: 1 << 10,
		delay: 5 * time.Millisecond,
	}
	w := httptest.NewRecorder()
	cr.routers[nonOwner].Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/assign/stream", body))
	body.handlerReturned()
	if w.Code != http.StatusNotFound {
		t.Fatalf("relay answered %d, want the replica's 404: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Connection") != "close" {
		t.Error("relayed rejection left the inbound connection open over an unread body")
	}
	time.Sleep(100 * time.Millisecond) // give a straggling body writer time to show itself
	if n := body.lateReads(); n > 0 {
		t.Fatalf("%d inbound body read(s) overlapped or followed the handler's return", n)
	}
}

// TestChaosSlowPeerDoesNotBlockEviction: a peer that hangs (accepts,
// never answers) is as dead as one that refuses — the probe timeout
// converts the hang into a failure and the state machine evicts it on
// schedule instead of stalling the tick.
func TestChaosSlowPeerDoesNotBlockEviction(t *testing.T) {
	cr := startChaosRing(t)
	cr.proxy.mu.Lock()
	cr.proxy.delay = 5 * time.Second // longer than any probe timeout
	cr.proxy.mu.Unlock()
	cr.proxy.killActive()

	m0 := cr.monitorFor(0) // probe timeout 500ms
	ctx := context.Background()
	start := time.Now()
	m0.Tick(ctx)
	changed := m0.Tick(ctx)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("two ticks against a hung peer took %v; the probe timeout is not bounding them", elapsed)
	}
	if !changed {
		t.Fatal("hung peer was not evicted after DeadAfter probes")
	}
	if live := cr.routers[0].LiveMembers(); contains(live, cr.proxy.addr()) {
		t.Fatalf("hung peer still in live ring %v", live)
	}
}

// TestChaosMembershipChurnRace runs assigns, streams, and stats reads
// concurrently with heartbeat-style SetLive churn on every shard. It is
// a race-detector test first (CI runs the package under -race): the
// assertion is that routing never corrupts a successful answer and the
// ring converges back to serving everything warm once the churn stops.
func TestChaosMembershipChurnRace(t *testing.T) {
	corpus := testCorpus(t, 3)
	h := startRingRF(t, 3, 2, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
		if _, err := h.clients[0].Fit(api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params}); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[string]api.AssignResponse, len(corpus))
	for _, e := range corpus {
		resp, err := h.clients[0].Assign(api.AssignRequest{
			FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
			Points:     e.probes,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[e.name] = resp
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn: each shard's live view flaps between the full ring and a
	// 2-member ring, as dueling heartbeat verdicts would drive it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		full := append([]string(nil), h.addrs...)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rt := h.routers[i%3]
			if i%2 == 0 {
				shrunk := []string{h.addrs[i%3], h.addrs[(i+1)%3]}
				rt.SetLive(shrunk)
			} else {
				rt.SetLive(full)
			}
		}
	}()

	// Traffic: assigns and streams through every shard; transient routing
	// errors (a relay hitting a shard mid-eviction) are legal, corrupted
	// successes are not.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := corpus[i%len(corpus)]
				via := h.clients[(w+i)%3]
				if i%4 == 3 {
					sr, err := via.AssignStream(
						api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
						bytes.NewReader(ndjsonPoints(t, e.probes)))
					if err != nil {
						continue
					}
					labels, _, err := sr.Collect()
					if err == nil && len(labels) != len(e.probes) {
						t.Errorf("churn stream %s returned %d labels, want %d", e.name, len(labels), len(e.probes))
					}
					continue
				}
				resp, err := via.Assign(api.AssignRequest{
					FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
					Points:     e.probes,
				})
				if err != nil {
					continue
				}
				if len(resp.Labels) != len(want[e.name].Labels) {
					t.Errorf("churn assign %s returned %d labels, want %d", e.name, len(resp.Labels), len(want[e.name].Labels))
					continue
				}
				for j := range resp.Labels {
					if resp.Labels[j] != want[e.name].Labels[j] {
						t.Errorf("churn assign %s label %d = %d, want %d", e.name, j, resp.Labels[j], want[e.name].Labels[j])
						break
					}
				}
			}
		}(w)
	}

	// Stats fan-out concurrently with membership swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			h.clients[i%3].RingStats()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Converge: every shard back to the full ring, then every key must
	// serve warm through every shard again.
	for _, rt := range h.routers {
		rt.SetLive(h.addrs)
	}
	for _, e := range corpus {
		for i := range h.clients {
			resp, err := h.clients[i].Assign(api.AssignRequest{
				FitRequest: api.FitRequest{Dataset: e.name, Algorithm: "Ex-DPC", Params: e.params},
				Points:     e.probes,
			})
			if err != nil {
				t.Fatalf("post-churn assign %s via shard %d: %v", e.name, i, err)
			}
			for j := range resp.Labels {
				if resp.Labels[j] != want[e.name].Labels[j] {
					t.Fatalf("post-churn assign %s via shard %d: label %d = %d, want %d",
						e.name, i, j, resp.Labels[j], want[e.name].Labels[j])
				}
			}
		}
	}
}
