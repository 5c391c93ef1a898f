package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"

	"repro/api"
	"repro/internal/wire"
)

// keySource says where a route finds the dataset key that places it on
// the ring.
type keySource int

const (
	keyNone   keySource = iota // not placed by key
	keyPath                    // the {name} path segment
	keyQuery                   // the ?dataset= query parameter
	keyBody                    // the body's top-level "dataset" field, or its header frame
	keyStream                  // the stream's header line or header frame
)

// routeClass says which instance serves a keyed request (see place).
type routeClass int

const (
	classLocal  routeClass = iota // always this instance
	classRead                     // any live replica holding the data, with failover
	classWrite                    // the key's primary; replicates on success
	classPin                      // the key's primary, no failover
	classFanOut                   // this instance, merging the live ring's view
	classStream                   // like classRead, but the body is piped, not buffered
)

// streamServeFunc serves a label stream from its parsed header: req is
// the header, next yields the points that follow, chunk is ?chunk=.
type streamServeFunc func(w http.ResponseWriter, r *http.Request, chunk int, req api.FitRequest, next func() ([]float64, error))

// route is one entry of the route table — the only place dpcd declares
// what it serves.
type route struct {
	pattern string
	key     keySource
	class   routeClass
	// limit caps a body this instance buffers, to peek its key or to
	// relay it; zero means the route carries no body.
	limit int64
	// frames marks a body that may be frame-coded (Content-Type
	// negotiation), so its key is peeked from the header frame.
	frames bool
	serve  http.HandlerFunc // every class but stream
	stream streamServeFunc  // classStream
}

// routes is the route table. A ring of one (NewHandler) omits the
// ring-admin routes; everything else is shared.
func (rt *Router) routes() []route {
	routes := []route{
		{pattern: "GET /healthz", serve: rt.handleHealth},
		{pattern: "GET /v1/datasets", class: classFanOut, serve: rt.handleDatasets},
		{pattern: "GET /v1/datasets/{name}", key: keyPath, class: classRead, serve: rt.handleDataset},
		{pattern: "PUT /v1/datasets/{name}", key: keyPath, class: classWrite, limit: maxUploadBytes, serve: rt.handleUpload},
		{pattern: "POST /v1/points", key: keyBody, class: classWrite, limit: maxAssignBytes, serve: rt.handleAppend},
		{pattern: "POST /v1/fit", key: keyBody, class: classWrite, limit: maxFitBytes, serve: rt.handleFit},
		{pattern: "POST /v1/assign", key: keyBody, class: classRead, limit: maxAssignBytes, frames: true, serve: rt.handleAssign},
		{pattern: "POST /v1/assign/stream", key: keyStream, class: classStream, stream: rt.handleStream},
		{pattern: "GET /v1/decision-graph", key: keyQuery, class: classPin, serve: rt.handleDecisionGraph},
		{pattern: "POST /v1/sweep", key: keyBody, class: classPin, limit: maxSweepBytes, serve: rt.handleSweep},
		{pattern: "GET /v1/drift", key: keyQuery, class: classPin, serve: rt.handleDrift},
		{pattern: "GET /v1/stats", class: classFanOut, serve: rt.handleStats},
	}
	if rt.solo {
		return routes
	}
	return append(routes,
		route{pattern: "GET /v1/ring", serve: rt.handleRing},
		route{pattern: "POST /v1/ring", serve: rt.handleSetRing},
		route{pattern: "POST /v1/replica/snapshot", serve: rt.handleInstall},
	)
}

// servesHere reports whether every key of r resolves to this instance
// without being read: a ring of one owns every key, and a peer's
// forwarded request was already routed.
func (rt *Router) servesHere(r *http.Request) bool {
	return rt.solo || r.Header.Get(forwardedHeader) != ""
}

// dispatch wraps a route's serve function in its local-or-relay rule.
// A keyed request that may be relayed buffers its capped body once,
// peeks the key out of it, and then either serves those bytes here or
// relays them unchanged — no hop decodes a body it does not serve.
func (rt *Router) dispatch(rr route) http.HandlerFunc {
	switch rr.key {
	case keyNone:
		return rr.serve
	case keyStream:
		return func(w http.ResponseWriter, r *http.Request) { rt.routeStream(w, r, rr.stream) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.servesHere(r) {
			rr.serve(w, r)
			return
		}
		var (
			body []byte
			name string
			err  error
		)
		if rr.limit > 0 {
			// An over-limit body must surface as the same JSON 413 the owner
			// itself would send — the relay hop is supposed to be invisible.
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, rr.limit)); err != nil {
				writeError(w, bodyErrStatus(err), fmt.Errorf("reading request: %w", err))
				return
			}
		}
		switch rr.key {
		case keyPath:
			name = r.PathValue("name")
		case keyQuery:
			name = r.URL.Query().Get("dataset")
		case keyBody:
			if rr.frames && frameRequest(r) {
				name, err = wire.PeekDataset(body)
			} else {
				name, err = peekDataset(body)
			}
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
				return
			}
		}
		if targets, local := rt.place(rr.class, name); !local {
			rt.relaySeq(w, r, targets, body)
			return
		}
		if rr.limit > 0 {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		rr.serve(w, r)
	}
}

// place is the local-or-relay rule for a keyed request. Reads (and
// streams) are served by any live replica holding the data: here when
// this instance replicates the key and either holds it or is its
// primary (a primary without the dataset answers the authoritative 404;
// a lagging replica defers to the primary), else relayed to the other
// replicas, primary first, with failover. Writes and pinned routes are
// served by the primary only, with no failover: two coordinators could
// assign one version to different points, and a replica would pay a
// full index build for one exploratory call. An absent key is served
// here so the serve function reports its usual validation error.
func (rt *Router) place(class routeClass, name string) (targets []string, local bool) {
	if name == "" {
		return nil, true
	}
	owners := rt.owners(name)
	if class != classRead && class != classStream {
		return owners[:1], owners[0] == rt.self
	}
	if contains(owners, rt.self) {
		if owners[0] == rt.self {
			return nil, true
		}
		if _, resident := rt.local.Dataset(name); resident {
			return nil, true
		}
	}
	for _, o := range owners {
		if o != rt.self {
			targets = append(targets, o)
		}
	}
	return targets, false
}

// routeStream parses a stream's header once — gunzipping first when the
// body is compressed — and hands the request and its point iterator to
// the local stream server, or relays the raw bytes to a replica. Only
// the header is read before the decision: the rest of the chunked body
// is piped, so a relay hop adds O(chunk) memory, not O(stream).
func (rt *Router) routeStream(w http.ResponseWriter, r *http.Request, serve streamServeFunc) {
	// Reading points interleaves with writing labels (or with relaying
	// them back) for the stream's whole life; HTTP/1.x closes the request
	// body at the first response write unless full duplex is on. (HTTP/2
	// is duplex natively and reports unsupported.)
	_ = http.NewResponseController(w).EnableFullDuplex()
	// Until the stream answers 200, any answer rejects it and leaves the
	// body unread, so the connection closes after it (a 200 lifts this).
	// Kept open, net/http would drain the unread full-duplex body after
	// the handler returned, and that drain's background read races the
	// server's read of the next request ("invalid concurrent Body.Read
	// call").
	w.Header().Set("Connection", "close")
	var sq api.StreamQuery
	if err := api.ParseQuery(r.URL.Query(), &sq); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A request that may be relayed records the raw bytes the header parse
	// consumes (the decompressor and bufio read ahead), so the relay can
	// replay exactly what the client sent: that prefix, then the unread rest.
	var capture *prefixCapture
	src := io.Reader(r.Body)
	if !rt.servesHere(r) {
		capture = &prefixCapture{}
		src = io.TeeReader(r.Body, capture)
	}
	if gzipRequest(r) {
		zr, err := gzip.NewReader(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode gzip request body: %w", err))
			return
		}
		defer zr.Close()
		src = zr
	}
	br := bufio.NewReaderSize(src, 64<<10)
	var (
		req  api.FitRequest
		next func() ([]float64, error)
	)
	if frameRequest(r) {
		h, _, err := wire.ReadHeaderFrame(br)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return
		}
		req, next = headerToFit(h), frameNext(wire.NewReader(br))
	} else {
		header, err := readStreamLine(br)
		if err != nil {
			writeError(w, streamLineStatus(err), fmt.Errorf("decode stream header: %w", err))
			return
		}
		if err := decodeStrict(bytes.NewReader(header), &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return
		}
		next = ndjsonNext(br)
	}
	if capture != nil {
		if targets, local := rt.place(classStream, req.Dataset); !local {
			rt.relayStream(w, r, targets, io.MultiReader(bytes.NewReader(capture.buf), r.Body))
			return
		}
		capture.buf, capture.done = nil, true
	}
	serve(w, r, sq.Chunk, req, next)
}

// prefixCapture records the raw body bytes a stream's header parse
// consumed, until done: a stream served here stops recording so its
// memory stays O(chunk).
type prefixCapture struct {
	buf  []byte
	done bool
}

func (c *prefixCapture) Write(p []byte) (int, error) {
	if !c.done {
		c.buf = append(c.buf, p...)
	}
	return len(p), nil
}
