package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval. Spans of one client operation share Op;
// Parent is filled in after the run from interval containment, which is
// exact here because every hop of an operation runs in this process
// and a closed-loop client has one operation in flight at a time.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Client roles. Each role is one closed-loop client (or the replication
// traffic its writes cause), so at most one operation per role is in
// flight and the current operation id of a role tags every hop.
const (
	roleReader = iota // POST /v1/assign
	roleStream        // POST /v1/assign/stream
	roleWriter        // POST /v1/points, /v1/fit, /v1/sweep, uploads, replica ships
	numRoles
)

const opHeader = "X-Bench-Op"

// tracer keeps spans in memory while on and writes them out at the end.
type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextOp atomic.Int64
	cur    [numRoles]atomic.Int64

	mu    sync.Mutex
	spans []span

	// Body bytes seen at the client's transport, per role, for requests
	// the benchmark's clients send (relay hops excluded).
	sent, recv [numRoles]atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a client operation of the given role and returns its id;
// 0 when tracing is off.
func (t *tracer) begin(role int) int64 {
	if !t.on.Load() {
		return 0
	}
	id := t.nextOp.Add(1)
	t.cur[role].Store(id)
	return id
}

// add records a span that ran from start to end; op 0 is a request that
// belongs to no client operation.
func (t *tracer) add(op int64, name, node string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Op: op, Name: name, Node: node,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)),
	})
	t.mu.Unlock()
}

// timed runs fn as its own operation, records it as a span and returns
// its duration. It is how replayed layer calls are traced.
func (t *tracer) timed(name string, fn func()) time.Duration {
	var op int64
	if t.on.Load() {
		op = t.nextOp.Add(1)
	}
	start := time.Now()
	fn()
	end := time.Now()
	t.add(op, name, "", start, end)
	return end.Sub(start)
}

// route names the API route of a request path.
func route(path string) string {
	switch {
	case path == "/v1/assign":
		return "assign"
	case path == "/v1/assign/stream":
		return "stream"
	case path == "/v1/points":
		return "points"
	case path == "/v1/fit":
		return "fit"
	case path == "/v1/sweep":
		return "sweep"
	case path == "/v1/replica/snapshot":
		return "replica"
	case strings.HasPrefix(path, "/v1/datasets"):
		return "datasets"
	}
	return "other"
}

func roleOf(path string) int {
	switch route(path) {
	case "assign":
		return roleReader
	case "stream":
		return roleStream
	}
	return roleWriter
}

// middleware wraps a daemon's handler: with tracing on, each request
// becomes a span tagged with the node and the operation id the client
// transport put in its header.
func (t *tracer) middleware(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(op, "http."+route(r.URL.Path), node, start, time.Now())
	})
}

// transport is installed as http.DefaultTransport in traced runs, so it
// carries the requests of the benchmark's service.Clients and of the
// routers' peer clients alike. With tracing on it tags every request
// with its role's current operation and counts the body bytes of
// requests the benchmark's clients send.
type transport struct {
	base http.RoundTripper
	t    *tracer
}

func (tp *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tp.t.on.Load() {
		return tp.base.RoundTrip(req)
	}
	role := roleOf(req.URL.Path)
	r2 := req.Clone(req.Context())
	if id := tp.t.cur[role].Load(); id != 0 {
		r2.Header.Set(opHeader, strconv.FormatInt(id, 10))
	}
	client := req.Header.Get("X-Dpcd-Forwarded") == ""
	if client && r2.Body != nil {
		r2.Body = &countingBody{ReadCloser: r2.Body, n: &tp.t.sent[role]}
	}
	resp, err := tp.base.RoundTrip(r2)
	if err == nil && client {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &tp.t.recv[role]}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	k, err := c.ReadCloser.Read(p)
	c.n.Add(int64(k))
	return k, err
}

// snapshot returns the recorded spans with parents linked.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(spans)
	return spans
}

// link sets each span's Parent to the innermost span of the same
// operation whose interval contains it.
func link(spans []span) {
	byOp := make(map[int64][]int)
	for i, s := range spans {
		if s.Op != 0 {
			byOp[s.Op] = append(byOp[s.Op], i)
		}
	}
	for _, idx := range byOp {
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.Start != sb.Start {
				return sa.Start < sb.Start
			}
			return sa.End > sb.End
		})
		var stack []int
		for _, i := range idx {
			for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[i].Parent = spans[stack[len(stack)-1]].ID
			}
			stack = append(stack, i)
		}
	}
}

// children indexes spans by parent id.
func children(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// covered is the part of s's interval that the union of kids covers.
func covered(s span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, s.Start), min(k.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s span, kids map[int64][]span) time.Duration {
	return s.dur() - covered(s, kids[s.ID])
}

// writeTrace writes the environment and every span, one JSON object per
// line, to path.
func writeTrace(path string, env map[string]any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
