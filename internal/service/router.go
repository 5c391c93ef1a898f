package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/api"
	"repro/internal/ring"
	"repro/internal/wire"
)

// Router shards one dpcd ring instance. Each dataset key has a replica
// set of rf instances, placed by successor walk on the consistent-hash
// ring (ring.OwnersN): index 0 is the primary, the rest are replicas.
// Reads — assigns, streams, dataset fetches — are served by any live
// replica; writes — uploads and fits — are coordinated by the primary,
// which ships persist-codec snapshots to the replicas so their state is
// warm (a replica install is a restart-style load: kd-tree rebuilt,
// clustering never re-run, zero refits). Requests for keys this instance
// does not replicate are transparently forwarded, with failover across
// the live replica set, so clients can talk to any instance.
//
// Membership is two sets. The configured set is the full peer list
// (flags or POST /v1/ring); the live set is the subset currently
// serving, and the ring is built over the live set only. SetLive —
// driven by the health monitor's heartbeat verdicts — shrinks and
// regrows the live set automatically: when a shard dies its keys' first
// replicas become primaries on the rebuilt ring and already hold the
// data, so failover is a routing change, not a data movement. Every
// membership change reconciles the local Service (warm-loading snapshots
// now owned, evicting — never deleting — those no longer owned) and then
// re-replicates what this instance is now primary for, healing replica
// sets thinned by the change.
//
// Forwarded requests carry a marker header and are always served
// locally, so a transient membership disagreement between peers costs
// one misrouted hop, not a loop.
type Router struct {
	self   string
	vnodes int
	rf     int
	local  *Service
	copts  ClientOptions
	// solo marks NewHandler's ring of one: every key resolves here, the
	// fan-out routes answer the local view, and the ring-admin routes are
	// not registered.
	solo bool

	// setMu serializes membership changes end to end (ring swap +
	// reconcile + re-replication): Service.Reconcile assumes one pass at a
	// time, and two overlapping changes interleaving their evict and
	// warm-load phases could leave datasets resident that the final ring
	// does not assign here. Both SetMembers (manual) and SetLive
	// (heartbeat) take it, so the two sources of change cannot interleave.
	setMu sync.Mutex

	mu         sync.RWMutex
	configured []string // full normalized peer set, sorted
	ring       *ring.Ring
	clients    map[string]*Client // keyed by configured peer, self absent

	forwarded     atomic.Int64
	forwardErrors atomic.Int64
	// replicated counts snapshot images successfully shipped to replicas;
	// replicationErrors counts ships that failed (the replica heals on the
	// next membership change or idempotent re-ship).
	replicated        atomic.Int64
	replicationErrors atomic.Int64
}

// RouterOptions configures a Router.
type RouterOptions struct {
	// Vnodes is the virtual-node count per ring member; <= 0 means
	// ring.DefaultVnodes.
	Vnodes int
	// RF is the replication factor: each key lives on min(RF, live
	// instances) distinct instances. <= 0 means 1 — the pre-replication
	// single-owner behavior.
	RF int
	// Client tunes the peer clients used for forwards and snapshot ships.
	Client ClientOptions
}

func (o RouterOptions) rf() int {
	if o.RF > 1 {
		return o.RF
	}
	return 1
}

// NewRouter wraps local in a ring router. self must appear in peers;
// peer addresses are base URLs (http://host:port) and are normalized
// before ring placement, so every instance must be given the identical
// spelling of the peer list. The initial live set is the full configured
// set, and the local service's resident state is reconciled against that
// ring immediately.
func NewRouter(local *Service, self string, peers []string, opts RouterOptions) (*Router, error) {
	selfNorm, err := normalizePeer(self)
	if err != nil {
		return nil, fmt.Errorf("service: -self: %w", err)
	}
	rt := &Router{
		self:   selfNorm,
		vnodes: opts.Vnodes,
		rf:     opts.rf(),
		local:  local,
		copts:  opts.Client,
	}
	if _, err := rt.SetMembers(peers); err != nil {
		return nil, err
	}
	// Ring-mode drift coordination: only a key's primary runs background
	// refits, and a landed refit ships to the replicas immediately — so a
	// replica's lineage swaps models by warm-load, never by refitting.
	local.SetDriftHooks(
		func(name string) bool {
			owners := rt.owners(name)
			return len(owners) == 0 || owners[0] == rt.self
		},
		rt.replicateDataset,
	)
	return rt, nil
}

// buildRing is the one place peer lists become rings: it normalizes
// self and every peer, constructs the ring, and verifies self is a
// member. OwnsFunc and the membership setters both go through it, so
// warm-load ownership and routing ownership can never disagree.
func buildRing(self string, peers []string, vnodes int) (selfNorm string, rg *ring.Ring, err error) {
	if selfNorm, err = normalizePeer(self); err != nil {
		return "", nil, fmt.Errorf("service: -self: %w", err)
	}
	norm := make([]string, 0, len(peers))
	for _, p := range peers {
		n, err := normalizePeer(p)
		if err != nil {
			return "", nil, fmt.Errorf("service: %w", err)
		}
		norm = append(norm, n)
	}
	if rg, err = ring.New(vnodes, norm...); err != nil {
		return "", nil, fmt.Errorf("service: %w", err)
	}
	if !rg.Has(selfNorm) {
		return "", nil, fmt.Errorf("service: self %q is not in the peer list %v", selfNorm, rg.Members())
	}
	return selfNorm, rg, nil
}

// OwnsFunc returns the replica-ownership filter the instance at self has
// on a ring of peers, without constructing a Router. cmd/dpcd uses it so
// the Service's warm load can skip unowned snapshots before the router
// (which needs the Service) exists; NewRouter with the same arguments
// builds the identical ring, so the two never disagree. With rf > 1 an
// instance "owns" every key it replicates, primary or not.
func OwnsFunc(self string, peers []string, vnodes, rf int) (func(dataset string) bool, error) {
	selfNorm, rg, err := buildRing(self, peers, vnodes)
	if err != nil {
		return nil, err
	}
	if rf < 1 {
		rf = 1
	}
	return func(dataset string) bool {
		return contains(rg.OwnersN(dataset, rf), selfNorm)
	}, nil
}

// contains reports whether ms includes m; replica sets are tiny (rf is
// 2 or 3) so a linear scan beats any set allocation.
func contains(ms []string, m string) bool {
	for _, x := range ms {
		if x == m {
			return true
		}
	}
	return false
}

// normalizePeer canonicalizes one peer base URL.
func normalizePeer(p string) (string, error) {
	p = strings.TrimRight(strings.TrimSpace(p), "/")
	u, err := url.Parse(p)
	if err != nil {
		return "", fmt.Errorf("bad peer URL %q: %w", p, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("peer URL %q must be http:// or https://", p)
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" {
		return "", fmt.Errorf("peer URL %q must be scheme://host[:port] with no path", p)
	}
	return p, nil
}

// Self returns this instance's normalized peer address.
func (rt *Router) Self() string { return rt.self }

// RF returns the configured replication factor.
func (rt *Router) RF() int { return rt.rf }

// Owns reports whether this instance replicates the dataset key on the
// current live ring (primary or replica).
func (rt *Router) Owns(dataset string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return contains(rt.ring.OwnersN(dataset, rt.rf), rt.self)
}

// owners returns the key's live replica set in successor order (primary
// first).
func (rt *Router) owners(dataset string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.OwnersN(dataset, rt.rf)
}

// clientFor returns the client for a configured peer, nil for self or
// unknown addresses.
func (rt *Router) clientFor(peer string) *Client {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.clients[peer]
}

// ConfiguredPeers returns the full configured peer set — what the health
// monitor probes, independent of current liveness verdicts.
func (rt *Router) ConfiguredPeers() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return append([]string(nil), rt.configured...)
}

// LiveMembers returns the current live ring membership.
func (rt *Router) LiveMembers() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Members()
}

// SetMembers replaces the configured membership and resets the live set
// to all of it (a freshly posted peer gets the benefit of the doubt; the
// heartbeat demotes it if it is not actually there). self must remain a
// member — an instance cannot route itself out of existence.
func (rt *Router) SetMembers(peers []string) (api.ReconcileStats, error) {
	rt.setMu.Lock()
	defer rt.setMu.Unlock()
	_, rg, err := buildRing(rt.self, peers, rt.vnodes)
	if err != nil {
		return api.ReconcileStats{}, err
	}
	return rt.applyLocked(rg.Members(), rg), nil
}

// SetLive replaces the live set — the heartbeat monitor's sink. The set
// is intersected with the configured membership (a heartbeat verdict
// about a peer that was since removed is stale) and always includes
// self. Unknown or malformed addresses are ignored rather than erroring:
// the monitor's view may lag a concurrent SetMembers by one tick, and
// the next tick converges.
func (rt *Router) SetLive(live []string) api.ReconcileStats {
	rt.setMu.Lock()
	defer rt.setMu.Unlock()
	rt.mu.RLock()
	configured := rt.configured
	rt.mu.RUnlock()
	inConfig := make(map[string]bool, len(configured))
	for _, p := range configured {
		inConfig[p] = true
	}
	members := []string{rt.self}
	for _, p := range live {
		n, err := normalizePeer(p)
		if err != nil || !inConfig[n] || n == rt.self {
			continue
		}
		members = append(members, n)
	}
	_, rg, err := buildRing(rt.self, members, rt.vnodes)
	if err != nil {
		// Unreachable: members is non-empty and contains self. Keep the
		// current ring rather than panicking a serving daemon.
		return api.ReconcileStats{}
	}
	rt.mu.RLock()
	same := sameMembers(rt.ring.Members(), rg.Members())
	rt.mu.RUnlock()
	if same {
		return api.ReconcileStats{}
	}
	return rt.applyLocked(configured, rg)
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a { // both sorted by ring.New
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyLocked (setMu held) swaps in a new configured set + live ring,
// reconciles the local service against it, and re-replicates everything
// this instance is now primary for. Clients are keyed by configured peer
// and survive liveness flaps, so a recovered peer reuses its connection
// pool.
func (rt *Router) applyLocked(configured []string, rg *ring.Ring) api.ReconcileStats {
	sortedCfg := append([]string(nil), configured...)
	sort.Strings(sortedCfg)
	clients := make(map[string]*Client, len(sortedCfg))
	rt.mu.Lock()
	for _, m := range sortedCfg {
		if m == rt.self {
			continue
		}
		if c, ok := rt.clients[m]; ok {
			clients[m] = c
		} else {
			clients[m] = NewClient(m, rt.copts)
		}
	}
	rt.configured = sortedCfg
	rt.ring = rg
	rt.clients = clients
	rt.mu.Unlock()
	rec := rt.local.Reconcile(rt.Owns)
	rt.selfHeal()
	return rec
}

// selfHeal re-replicates every resident dataset this instance is primary
// for. After a membership change some keys have a fresh replica (a death
// promoted this instance, or a new peer took over a successor slot) that
// holds nothing yet; shipping the snapshots now restores the replication
// factor instead of waiting for the next write. Installs are idempotent,
// so re-shipping to an already-current replica is a cheap no-op.
func (rt *Router) selfHeal() {
	for _, info := range rt.local.Datasets() {
		rt.replicateDataset(info.Name)
	}
}

// replicateDataset ships the named dataset plus its completed models —
// and its density index — to the key's live replicas when this instance
// is the key's primary. The serve functions call it from typed Service
// results (a write that succeeded, a fit that was not a cache hit, a
// fresh index build), the drift hook after a refit lands, and selfHeal
// after membership changes.
func (rt *Router) replicateDataset(name string) {
	owners := rt.owners(name)
	if len(owners) < 2 || owners[0] != rt.self {
		return
	}
	snaps := rt.local.ReplicationSnapshots(name)
	if snaps == nil {
		return
	}
	for _, o := range owners[1:] {
		c := rt.clientFor(o)
		if c == nil {
			continue
		}
		for _, raw := range snaps {
			if _, err := c.ShipSnapshot(raw); err != nil {
				rt.replicationErrors.Add(1)
				// The dataset snapshot must land before its models can; skip
				// the rest of this replica's batch and let the next self-heal
				// or write retry it.
				break
			}
			rt.replicated.Add(1)
		}
	}
}

// Handler returns the ring-mode HTTP API: the route table (routes.go)
// with reads served by any live replica, writes coordinated by the
// primary, /v1/stats and /v1/datasets fanned out across the live ring,
// plus /v1/ring and the internal /v1/replica/snapshot.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rr := range rt.routes() {
		mux.HandleFunc(rr.pattern, rt.dispatch(rr))
	}
	return mux
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	var q api.RingQuery
	if err := api.ParseQuery(r.URL.Query(), &q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.mu.RLock()
	resp := api.RingInfo{
		Self:       rt.self,
		Peers:      rt.ring.Members(),
		Configured: rt.configured,
		RF:         rt.rf,
		Vnodes:     rt.ring.Vnodes(),
	}
	for _, p := range rt.configured {
		if !rt.ring.Has(p) {
			resp.Down = append(resp.Down, p)
		}
	}
	if q.Key != "" {
		resp.Owners = rt.ring.OwnersN(q.Key, rt.rf)
		resp.Owner = resp.Owners[0]
	}
	rt.mu.RUnlock()
	if q.Key != "" {
		// Echo the resident dataset the key names — including its
		// storage precision — when this instance replicates it.
		if ds, ok := rt.local.Dataset(q.Key); ok {
			info := dsInfo(q.Key, ds)
			resp.Dataset = &info
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleSetRing(w http.ResponseWriter, r *http.Request) {
	var req api.RingUpdateRequest
	if !decodeJSON(w, r, &req, maxFitBytes) {
		return
	}
	rec, err := rt.SetMembers(req.Peers)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.mu.RLock()
	peers := rt.ring.Members()
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, api.RingUpdateResponse{Self: rt.self, Peers: peers, Reconcile: rec})
}

// handleInstall is the replication sink: a primary ships persist
// snapshot images here, already addressed to the replica that must
// install them.
func (rt *Router) handleInstall(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("reading snapshot: %w", err))
		return
	}
	res, err := rt.local.InstallSnapshot(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// peekDataset extracts the top-level "dataset" field from a fit/assign
// body without building the rest of the document. It stops as soon as
// the field is seen — our own client and the documented request shape
// put "dataset" first, making the scan O(1) regardless of batch size —
// and in the worst case token-skips a near-cap points array without
// allocating it. Full strict validation (unknown fields, types) stays
// with the owning shard's handler; routing only needs the name. An
// object without the field returns "" and no error.
func peekDataset(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	t, err := dec.Token()
	if err != nil {
		return "", err
	}
	if d, ok := t.(json.Delim); !ok || d != '{' {
		return "", fmt.Errorf("request body must be a JSON object")
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return "", err
		}
		key, _ := keyTok.(string)
		if key == "dataset" {
			var name string
			if err := dec.Decode(&name); err != nil {
				return "", fmt.Errorf("field %q must be a string: %w", key, err)
			}
			return name, nil
		}
		if err := skipValue(dec); err != nil {
			return "", err
		}
	}
	return "", nil
}

// skipValue consumes exactly one JSON value from the decoder without
// materializing it.
func skipValue(dec *json.Decoder) error {
	t, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := t.(json.Delim); ok && (d == '{' || d == '[') {
		for depth := 1; depth > 0; {
			t, err := dec.Token()
			if err != nil {
				return err
			}
			if d, ok := t.(json.Delim); ok {
				switch d {
				case '{', '[':
					depth++
				case '}', ']':
					depth--
				}
			}
		}
	}
	return nil
}

// relaySeq forwards one buffered request across the target list in
// order, failing over on transport errors only: the first replica that
// answers — with any HTTP status — is the answer, byte-identical to what
// a direct request would get. The body is a byte slice, so every attempt
// replays identical bytes; this is what makes buffered-path failover
// safe where the streaming path's is not. The inbound Content-Type and
// Accept travel with it, so codec negotiation happens at the serving
// replica exactly as it would on a direct request.
func (rt *Router) relaySeq(w http.ResponseWriter, r *http.Request, targets []string, body []byte) {
	rt.forwarded.Add(1)
	var lastErr error
	for _, o := range targets {
		peer := rt.clientFor(o)
		if peer == nil {
			continue
		}
		status, data, ct, err := peer.do(r.Method, r.URL.RequestURI(), r.Header.Get("Content-Type"), r.Header.Get("Accept"), body, true)
		if err != nil {
			rt.forwardErrors.Add(1)
			lastErr = fmt.Errorf("shard %s unreachable: %w", o, err)
			continue
		}
		if ct == "" {
			ct = "application/json"
		}
		w.Header().Set("Content-Type", ct)
		w.WriteHeader(status)
		_, _ = w.Write(data)
		return
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no live replica for this key")
	}
	writeError(w, http.StatusBadGateway, lastErr)
}

// countingReader is the inbound stream as one upstream attempt sends
// it. It counts the bytes the attempt consumed, the fact that decides
// whether failover is allowed, and closes done when the transport closes
// it. The transport always closes a request body, but possibly from its
// own writer goroutine after RoundTrip returned, and it may read the body
// until then.
type countingReader struct {
	r    io.Reader
	n    atomic.Int64
	once sync.Once
	done chan struct{}
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n.Add(int64(n))
	return n, err
}

func (cr *countingReader) Close() error {
	cr.once.Do(func() { close(cr.done) })
	return nil
}

// relayStream pipes a streaming assign to a live replica of the key: the
// request body flows through without buffering or re-encoding — NDJSON
// lines and binary frames alike are opaque bytes here — and the replica's
// response is copied back chunk by chunk with a flush per write.
//
// Failover follows the no-retry rule for unreplayable bodies (see
// Client.stream): an attempt that consumed zero request-body bytes —
// dial refused, connection reset before the body moved — may fail over
// to the next replica, because the next attempt replays nothing; the
// moment any body byte has been consumed the stream is committed to that
// replica, and a failure is delivered as a terminal error, never a
// silent resend. If the replica dies after the 200 went out, the failure
// arrives the only way left: a terminal error record in the response's
// codec.
//
// The relay never returns while an upstream transport can still read the
// inbound body: once the handler returns, the server reads that body
// itself. Each return cancels the upstream leg and waits for the last
// attempt's transport to close its body. Only a relayed 200 keeps the
// inbound connection open (see routeStream).
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request, targets []string, body io.Reader) {
	rt.forwarded.Add(1)
	// The inbound request context cancels the upstream leg when the
	// client hangs up, so an abandoned stream cannot pin two connections.
	ctx, cancel := context.WithCancel(r.Context())
	var cr *countingReader
	defer func() {
		cancel()
		if cr != nil {
			<-cr.done
		}
	}()
	var (
		resp    *http.Response
		lastErr error
		target  string
	)
	for _, o := range targets {
		peer := rt.clientFor(o)
		if peer == nil {
			continue
		}
		var err error
		// Encoding headers travel verbatim: the relay never re-compresses —
		// gzip bodies pass through as opaque bytes. An explicit
		// Accept-Encoding also disables the transport's transparent gzip,
		// so the response encoding stays visible for the passthrough below.
		var enc http.Header
		if ce := r.Header.Get("Content-Encoding"); ce != "" {
			enc = http.Header{"Content-Encoding": {ce}}
		}
		if ae := r.Header.Get("Accept-Encoding"); ae != "" {
			if enc == nil {
				enc = http.Header{}
			}
			enc.Set("Accept-Encoding", ae)
		}
		// Query knobs (?chunk=) travel with the hop so the serving replica
		// honors them exactly as it would on a direct request.
		cr = &countingReader{r: body, done: make(chan struct{})}
		resp, err = peer.stream(ctx, r.Method, r.URL.RequestURI(),
			r.Header.Get("Content-Type"), r.Header.Get("Accept"), cr, true, enc)
		if err == nil {
			target = o
			break
		}
		// The failed attempt's transport is done with the body once it
		// closes it; only then is the consumed count final.
		<-cr.done
		rt.forwardErrors.Add(1)
		lastErr = fmt.Errorf("shard %s unreachable: %w", o, err)
		if cr.n.Load() > 0 {
			// The failed attempt consumed part of the inbound stream; a
			// second attempt would replay a torn prefix. Fail loudly.
			writeError(w, http.StatusBadGateway,
				fmt.Errorf("stream not retried after partial send: %w", lastErr))
			return
		}
	}
	if resp == nil {
		if lastErr == nil {
			lastErr = fmt.Errorf("no live replica for this key")
		}
		writeError(w, http.StatusBadGateway, lastErr)
		return
	}
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	if ct == "" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	if resp.StatusCode == http.StatusOK {
		w.Header().Del("Connection") // the replica reads the stream to EOF (see routeStream)
	}
	gzResp := false
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		w.Header().Set("Content-Encoding", ce)
		gzResp = true
	}
	w.WriteHeader(resp.StatusCode)
	flushResponse(w) // the replica's status is news; don't sit on it
	fw := &flushWriter{w: w}
	if isFrameMedia(ct) && !gzResp {
		fw.track = &wire.Tracker{}
	}
	if _, err := io.Copy(fw, resp.Body); err != nil {
		rt.forwardErrors.Add(1)
		relayErr := fmt.Errorf("shard %s failed mid-stream: %v", target, err)
		if gzResp {
			// Welding anything onto a torn compressed stream would corrupt
			// it; the truncation itself is the client's failure signal (its
			// gzip reader errors before any summary record).
			return
		}
		if fw.track != nil {
			// A binary error frame is only legal at a frame boundary;
			// welded onto a torn frame it would corrupt the stream instead
			// of explaining it. Mid-frame, leave the truncation — the
			// client's reader reports it as the stream's failure.
			if fw.track.AtBoundary() {
				_, _ = w.Write(wire.AppendError(nil, relayErr.Error()))
				flushResponse(w)
			}
			return
		}
		// The replica may have died mid-record; start a fresh line so the
		// terminal error record stays parseable instead of being welded
		// onto the torn bytes.
		if !fw.atLineStart() {
			_, _ = w.Write([]byte("\n"))
		}
		writeStreamError(w, relayErr)
	}
}

// flushWriter flushes after every write so relayed label chunks reach
// the client as the replica emits them instead of pooling in this hop. It
// remembers the last byte so an NDJSON error record can be placed on a
// fresh line after a torn copy, and (binary responses only) tracks frame
// boundaries so an error frame is appended only where one may legally go.
type flushWriter struct {
	w     http.ResponseWriter
	last  byte
	track *wire.Tracker
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.last = p[n-1]
		if fw.track != nil {
			fw.track.Consume(p[:n])
		}
	}
	if f, ok := fw.w.(http.Flusher); ok {
		f.Flush()
	}
	return n, err
}

func (fw *flushWriter) atLineStart() bool { return fw.last == 0 || fw.last == '\n' }

// allDatasets fans the registry listing out across the live ring and
// merges it, deduplicating by name — with rf > 1 every dataset is
// resident on several shards but is still one dataset. Dead peers are
// skipped without probing; unreachable live peers contribute nothing —
// the listing degrades to what the reachable shards hold.
func (rt *Router) allDatasets() []api.DatasetInfo {
	rt.mu.RLock()
	peers := rt.ring.Members()
	clients := rt.clients
	rt.mu.RUnlock()
	var (
		mu  sync.Mutex
		all []api.DatasetInfo
		wg  sync.WaitGroup
	)
	for _, p := range peers {
		if p == rt.self {
			// Under mu too: goroutines spawned for earlier peers may
			// already be appending.
			mu.Lock()
			all = append(all, rt.local.Datasets()...)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			infos, err := c.LocalDatasets()
			if err != nil {
				return
			}
			mu.Lock()
			all = append(all, infos...)
			mu.Unlock()
		}(clients[p])
	}
	wg.Wait()
	sort.Slice(all, func(a, b int) bool { return all[a].Name < all[b].Name })
	out := all[:0]
	for i, d := range all {
		if i == 0 || all[i-1].Name != d.Name {
			out = append(out, d)
		}
	}
	return out
}

// aggregateStats fans /v1/stats out across the configured peer set and
// sums the counters. Peers outside the live set are reported with the
// unreachable marker and never probed — a dead shard must not add a
// timeout to every stats call — and a live peer that fails its probe is
// reported per-peer instead of failing the aggregate.
func (rt *Router) aggregateStats() api.RingStats {
	rt.mu.RLock()
	configured := rt.configured
	live := rt.ring
	clients := rt.clients
	rt.mu.RUnlock()
	resp := api.RingStats{
		Self:              rt.self,
		Peers:             live.Members(),
		RF:                rt.rf,
		Forwarded:         rt.forwarded.Load(),
		ForwardErrors:     rt.forwardErrors.Load(),
		Replicated:        rt.replicated.Load(),
		ReplicationErrors: rt.replicationErrors.Load(),
		PerPeer:           make([]api.PeerStats, len(configured)),
	}
	var wg sync.WaitGroup
	for i, p := range configured {
		switch {
		case p == rt.self:
			st := rt.local.Stats()
			resp.PerPeer[i] = api.PeerStats{Peer: p, Stats: &st}
		case !live.Has(p):
			resp.PerPeer[i] = api.PeerStats{Peer: p, Unreachable: true}
			resp.Down = append(resp.Down, p)
		default:
			wg.Add(1)
			go func(i int, p string, c *Client) {
				defer wg.Done()
				st, err := c.LocalStats()
				if err != nil {
					resp.PerPeer[i] = api.PeerStats{Peer: p, Error: err.Error()}
					return
				}
				resp.PerPeer[i] = api.PeerStats{Peer: p, Stats: &st}
			}(i, p, clients[p])
		}
	}
	wg.Wait()
	for _, ps := range resp.PerPeer {
		if ps.Stats == nil {
			continue
		}
		resp.PeersUp++
		resp.Total.Accumulate(*ps.Stats)
	}
	if total := resp.Total.CacheHits + resp.Total.CacheMisses; total > 0 {
		resp.Total.HitRate = float64(resp.Total.CacheHits) / float64(total)
	}
	return resp
}
