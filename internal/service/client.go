package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/api"
	"repro/internal/wire"
)

// forwardedHeader marks a request as already routed by a peer. A
// receiver serves such requests locally no matter what its own ring
// says, so a transient membership disagreement degrades to one wrong
// hop instead of a forwarding loop.
const forwardedHeader = "X-Dpcd-Forwarded"

// ClientOptions tunes a Client. The zero value is usable.
type ClientOptions struct {
	// Timeout bounds one HTTP attempt; <= 0 means 60s (an assign of a
	// full batch against a cold model can legitimately take a while).
	Timeout time.Duration
	// Retries is the number of additional attempts after a transport
	// error; < 0 means 0, default 2. Every dpcd endpoint is idempotent —
	// uploads are versioned, fits are single-flight, assigns are reads —
	// so retrying POSTs is safe.
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt;
	// <= 0 means 50ms.
	Backoff time.Duration
	// GzipStream compresses the request body of streaming assigns with
	// gzip and asks for a gzip response — worthwhile on slow links, pure
	// CPU overhead on localhost. Batch endpoints are unaffected.
	GzipStream bool
}

func (o ClientOptions) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 60 * time.Second
}

func (o ClientOptions) retries() int {
	if o.Retries < 0 {
		return 0
	}
	if o.Retries == 0 {
		return 2
	}
	return o.Retries
}

func (o ClientOptions) backoff() time.Duration {
	if o.Backoff > 0 {
		return o.Backoff
	}
	return 50 * time.Millisecond
}

// Client is a typed HTTP client for one dpcd instance. The router uses
// it to forward requests to the owning shard; the bench harness and
// tests use it as a regular API client.
type Client struct {
	base string
	hc   *http.Client
	// sc is the streaming client: no overall timeout, because a label
	// stream legitimately outlives any fixed deadline — progress, not
	// wall-clock, is the health signal. It shares hc's connection pool.
	sc         *http.Client
	retries    int
	backoff    time.Duration
	gzipStream bool
}

// NewClient returns a client for the instance at base (scheme://host:port,
// no trailing slash required).
func NewClient(base string, opts ClientOptions) *Client {
	// The stream client must not bound the whole exchange, but a server
	// that accepts the connection and never sends response headers would
	// otherwise hang a stream forever; Timeout covers the header wait on
	// the transport instead.
	streamTransport := http.DefaultTransport
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		tc := t.Clone()
		tc.ResponseHeaderTimeout = opts.timeout()
		streamTransport = tc
	}
	return &Client{
		base:       strings.TrimRight(base, "/"),
		hc:         &http.Client{Timeout: opts.timeout()},
		sc:         &http.Client{Transport: streamTransport},
		retries:    opts.retries(),
		backoff:    opts.backoff(),
		gzipStream: opts.GzipStream,
	}
}

// Base returns the instance URL this client targets.
func (c *Client) Base() string { return c.base }

// do performs one request with transport-level retries. Bodies are
// byte slices, never streams, so every retry replays identical bytes.
// HTTP-level errors (any status) are returned to the caller untouched —
// a 400 from the owner is the answer, not a reason to retry. accept,
// when non-empty, asks the server for that response codec.
func (c *Client) do(method, path string, contentType, accept string, body []byte, forwarded bool) (status int, data []byte, ct string, err error) {
	backoff := c.backoff
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, rerr := http.NewRequest(method, c.base+path, rd)
		if rerr != nil {
			return 0, nil, "", rerr
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if forwarded {
			req.Header.Set(forwardedHeader, "1")
		}
		resp, derr := c.hc.Do(req)
		if derr != nil {
			err = derr
			if attempt >= c.retries {
				return 0, nil, "", fmt.Errorf("service: %s %s%s: %w (after %d attempts)", method, c.base, path, err, attempt+1)
			}
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			if attempt >= c.retries {
				return 0, nil, "", fmt.Errorf("service: %s %s%s: reading response: %w", method, c.base, path, err)
			}
			time.Sleep(backoff)
			backoff *= 2
			continue
		}
		return resp.StatusCode, data, resp.Header.Get("Content-Type"), nil
	}
}

// call is do plus JSON decoding and error mapping for the typed methods.
func (c *Client) call(method, path string, contentType string, body []byte, forwarded bool, out any) error {
	status, data, _, err := c.do(method, path, contentType, "", body, forwarded)
	if err != nil {
		return err
	}
	if status < 200 || status > 299 {
		return statusError(status, data)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: %s %s%s: decoding response: %w", method, c.base, path, err)
	}
	return nil
}

// statusError maps a non-2xx response body — the JSON error envelope on
// every dpcd error path, regardless of the request codec — onto a typed
// *api.APIError (legacy flat bodies and plain text degrade gracefully).
func statusError(status int, data []byte) error {
	return api.DecodeError(status, data)
}

func marshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		// All request types are plain data structs; this cannot fail.
		panic(fmt.Sprintf("service: marshaling %T: %v", v, err))
	}
	return raw
}

// Health reports whether the instance answers its liveness probe.
func (c *Client) Health() error {
	return c.call(http.MethodGet, "/healthz", "", nil, false, nil)
}

// PutDataset uploads a dataset body in the given format ("csv" or
// "binary") at the server's default (float64) storage precision.
func (c *Client) PutDataset(name, format string, body []byte) (api.DatasetInfo, error) {
	return c.PutDatasetPrecision(name, format, "", body)
}

// PutDatasetPrecision uploads a dataset body, requesting a storage
// precision: api.PrecisionF32 stores the points as float32 (halving
// resident memory and unlocking the f32 kernels), api.PrecisionF64 or
// "" keeps the default float64. A daemon predating the precision
// surface ignores the parameter and stores float64 — check the
// returned DatasetInfo.Precision when it matters.
func (c *Client) PutDatasetPrecision(name, format, precision string, body []byte) (api.DatasetInfo, error) {
	q := url.Values{}
	if format != "" && format != "csv" {
		q.Set("format", format)
	}
	if precision != "" && precision != api.PrecisionF64 {
		q.Set("precision", precision)
	}
	path := "/v1/datasets/" + url.PathEscape(name)
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var info api.DatasetInfo
	err := c.call(http.MethodPut, path, "application/octet-stream", body, false, &info)
	return info, err
}

// AppendPoints appends points to a registered dataset's sliding window
// (POST /v1/points): the points land at the end, the oldest rows past
// the server's -window expire, and the dataset version advances.
func (c *Client) AppendPoints(req api.AppendRequest) (api.AppendResponse, error) {
	var out api.AppendResponse
	err := c.call(http.MethodPost, "/v1/points", "application/json", marshal(req), false, &out)
	return out, err
}

// Drift fetches the drift trackers of a dataset's served models (GET
// /v1/drift), optionally filtered to one algorithm.
func (c *Client) Drift(dataset, algorithm string) (api.DriftResponse, error) {
	path := "/v1/drift?dataset=" + url.QueryEscape(dataset)
	if algorithm != "" {
		path += "&algorithm=" + url.QueryEscape(algorithm)
	}
	var out api.DriftResponse
	err := c.call(http.MethodGet, path, "", nil, false, &out)
	return out, err
}

// Fit requests (or fetches the cached) model for the triple in req.
func (c *Client) Fit(req api.FitRequest) (api.FitResponse, error) {
	var out api.FitResponse
	err := c.call(http.MethodPost, "/v1/fit", "application/json", marshal(req), false, &out)
	return out, err
}

// Assign labels req.Points against the model for the triple in req.
func (c *Client) Assign(req api.AssignRequest) (api.AssignResponse, error) {
	var out api.AssignResponse
	err := c.call(http.MethodPost, "/v1/assign", "application/json", marshal(req), false, &out)
	return out, err
}

// DecisionGraph fetches the decision graph of a dataset at dcut — the
// (rho, delta) pairs sorted by descending delta, from the instance's
// density index. limit > 0 truncates to the top entries (a plot rarely
// needs more than the head; the elbow is what the analyst reads).
func (c *Client) DecisionGraph(dataset string, dcut float64, limit int) (api.DecisionGraphResponse, error) {
	path := fmt.Sprintf("/v1/decision-graph?dataset=%s&dcut=%s",
		url.QueryEscape(dataset), url.QueryEscape(strconv.FormatFloat(dcut, 'g', -1, 64)))
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	var out api.DecisionGraphResponse
	err := c.call(http.MethodGet, path, "", nil, false, &out)
	return out, err
}

// Sweep runs one parameter sweep: the server builds (or reuses) the
// dataset's density index once and re-cuts it per setting, so K settings
// cost far less than K fits and never touch the model cache.
func (c *Client) Sweep(req api.SweepRequest) (api.SweepResponse, error) {
	var out api.SweepResponse
	err := c.call(http.MethodPost, "/v1/sweep", "application/json", marshal(req), false, &out)
	return out, err
}

// assignFrameChunk bounds one points frame of a batch body well under
// wire.MaxPayload at any sane dimensionality.
const assignFrameChunk = 8192

// AssignFrames is Assign over the binary frame codec in both directions:
// the request is a header frame plus chunked points frames, the response
// a labels frame and its summary. float32w narrows coordinates to
// float32 on the wire — half the bytes, lossless only when the values
// round-trip.
func (c *Client) AssignFrames(req api.FitRequest, pts [][]float64, float32w bool) (api.AssignResponse, error) {
	body := wire.AppendHeader(nil, fitToHeader(req))
	for i := 0; i < len(pts); i += assignFrameChunk {
		body = wire.AppendPointsRows(body, pts[i:min(i+assignFrameChunk, len(pts))], float32w)
	}
	status, data, _, err := c.do(http.MethodPost, "/v1/assign", wire.ContentType, wire.ContentType, body, false)
	if err != nil {
		return api.AssignResponse{}, err
	}
	if status < 200 || status > 299 {
		return api.AssignResponse{}, statusError(status, data)
	}
	var out api.AssignResponse
	sawSummary := false
	for len(data) > 0 {
		f, rest, err := wire.DecodeFrame(data)
		if err != nil {
			return api.AssignResponse{}, fmt.Errorf("service: decoding assign response: %w", err)
		}
		data = rest
		switch f.Kind {
		case wire.KindLabels:
			out.Labels = append(out.Labels, f.Labels...)
		case wire.KindSummary:
			out.Clusters = f.Summary.Clusters
			out.CacheHit = f.Summary.CacheHit
			sawSummary = true
		case wire.KindError:
			return api.AssignResponse{}, fmt.Errorf("service: %s", f.ErrMsg)
		default:
			return api.AssignResponse{}, fmt.Errorf("service: unexpected frame kind %d in assign response", f.Kind)
		}
	}
	if !sawSummary {
		return api.AssignResponse{}, fmt.Errorf("service: assign response ended without a summary frame")
	}
	return out, nil
}

// stream performs one request whose body is a live stream. No retries:
// the body cannot be replayed, and a half-consumed stream must fail
// loudly rather than resend silently. This rule extends to replica
// failover — a router relaying a stream may try another replica only
// while zero body bytes have been consumed (see Router.relayStream);
// once any byte has moved, the stream is committed and a failure is
// terminal. ctx cancels the exchange at any point (a relay hop passes
// its inbound request context, so a client hanging up tears down the
// upstream leg too). The caller owns the response body. Like
// http.Client.Do, stream closes body on every path when it is an
// io.Closer.
func (c *Client) stream(ctx context.Context, method, path, contentType, accept string, body io.Reader, forwarded bool, extra http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		if bc, ok := body.(io.Closer); ok {
			bc.Close()
		}
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if forwarded {
		req.Header.Set(forwardedHeader, "1")
	}
	resp, err := c.sc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: %s %s%s: %w", method, c.base, path, err)
	}
	return resp, nil
}

// AssignStream labels an unbounded point stream against the model for
// the triple in req via POST /v1/assign/stream. points is NDJSON — one
// JSON coordinate array per line; the header line is prepended here. The
// returned StreamReader yields label chunks as the server emits them, so
// neither side ever holds more than one chunk in memory.
func (c *Client) AssignStream(req api.FitRequest, points io.Reader) (*StreamReader, error) {
	return c.AssignStreamContext(context.Background(), req, points)
}

// AssignStreamContext is AssignStream with caller-owned cancellation.
func (c *Client) AssignStreamContext(ctx context.Context, req api.FitRequest, points io.Reader) (*StreamReader, error) {
	body := io.MultiReader(bytes.NewReader(append(marshal(req), '\n')), points)
	return c.openStream(ctx, ndjsonContentType, body)
}

// AssignStreamFrames is AssignStream over the binary frame codec in both
// directions: points must be a stream of wire points frames (see
// wire.EncodePoints); the header frame is prepended here.
func (c *Client) AssignStreamFrames(req api.FitRequest, points io.Reader) (*StreamReader, error) {
	return c.AssignStreamFramesContext(context.Background(), req, points)
}

// AssignStreamFramesContext is AssignStreamFrames with caller-owned
// cancellation.
func (c *Client) AssignStreamFramesContext(ctx context.Context, req api.FitRequest, points io.Reader) (*StreamReader, error) {
	body := io.MultiReader(bytes.NewReader(wire.AppendHeader(nil, fitToHeader(req))), points)
	return c.openStream(ctx, wire.ContentType, body)
}

// openStream starts one streaming assign and wraps the live response in
// a StreamReader for whichever codec the server chose (the response
// Content-Type decides — a relay hop may legitimately answer in the
// request codec even if this client could read either).
func (c *Client) openStream(ctx context.Context, contentType string, body io.Reader) (*StreamReader, error) {
	var extra http.Header
	if c.gzipStream {
		// Compress through a pipe so memory stays O(chunk): the request
		// goroutine pulls from pr as it sends, the copy goroutine feeds the
		// compressor from the caller's stream. Setting Accept-Encoding
		// explicitly also stops the transport's transparent gzip layer, so
		// the response encoding below is ours to handle.
		pr, pw := io.Pipe()
		go func(src io.Reader) {
			gz := gzip.NewWriter(pw)
			_, err := io.Copy(gz, src)
			if cerr := gz.Close(); err == nil {
				err = cerr
			}
			pw.CloseWithError(err)
		}(body)
		body = pr
		extra = http.Header{
			"Content-Encoding": {"gzip"},
			"Accept-Encoding":  {"gzip"},
		}
	}
	resp, err := c.stream(ctx, http.MethodPost, "/v1/assign/stream", contentType, contentType, body, false, extra)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Pre-stream failure: a plain JSON error body, same as batch.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxStreamLineBytes))
		resp.Body.Close()
		return nil, statusError(resp.StatusCode, data)
	}
	rbody := io.Reader(resp.Body)
	ce := resp.Header.Get("Content-Encoding")
	if strings.EqualFold(ce, "gzip") || strings.EqualFold(ce, "x-gzip") {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("service: decoding gzip label stream: %w", err)
		}
		rbody = zr
	}
	sr := &StreamReader{body: resp.Body}
	if isFrameMedia(resp.Header.Get("Content-Type")) {
		sr.fr = wire.NewReader(rbody)
	} else {
		sr.dec = json.NewDecoder(rbody)
	}
	return sr, nil
}

// StreamReader iterates the label chunks of one streaming assign, over
// either response codec: exactly one of dec (NDJSON records) or fr
// (binary frames) is set.
//
// Retry guidance: a failed stream must never be retried by resending the
// same reader — the request body was consumed as it was sent and cannot
// be replayed. This holds across replica failover too: when a ring hop
// relays a stream, only an attempt that consumed zero body bytes may
// move to another replica; after that, a mid-stream death surfaces here
// as a terminal error record or a truncation error, and re-running the
// stream is the caller's decision, from a fresh source.
type StreamReader struct {
	body    io.ReadCloser
	dec     *json.Decoder
	fr      *wire.Reader
	summary *api.StreamSummary
	err     error
}

// Next returns the next chunk of labels in input order. It returns
// io.EOF after the terminal summary record; any other error — including
// a server-side error record or a stream truncated without a summary —
// is the stream's failure.
func (sr *StreamReader) Next() ([]int32, error) {
	if sr.err != nil {
		return nil, sr.err
	}
	if sr.summary != nil {
		return nil, io.EOF
	}
	if sr.fr != nil {
		return sr.nextFrame()
	}
	var rec api.StreamRecord
	switch err := sr.dec.Decode(&rec); {
	case err == io.EOF:
		// The summary is the success marker; EOF before it means the
		// server (or a relay hop) died mid-stream.
		sr.err = fmt.Errorf("service: label stream truncated before its summary record")
	case err != nil:
		sr.err = fmt.Errorf("service: decoding label stream: %w", err)
	case rec.Error != "":
		sr.err = fmt.Errorf("service: %s", rec.Error)
	case rec.Summary != nil:
		sr.summary = rec.Summary
		return nil, io.EOF
	default:
		return rec.Labels, nil
	}
	return nil, sr.err
}

// nextFrame is Next over the binary codec. An upstream that dies
// mid-stream surfaces exactly like NDJSON truncation: a clean EOF before
// the summary frame, or a torn frame, are both the stream's failure —
// never a silent success.
func (sr *StreamReader) nextFrame() ([]int32, error) {
	switch f, err := sr.fr.Next(); {
	case err == io.EOF:
		sr.err = fmt.Errorf("service: label stream truncated before its summary record")
	case err != nil:
		sr.err = fmt.Errorf("service: decoding label stream: %w", err)
	case f.Kind == wire.KindError:
		sr.err = fmt.Errorf("service: %s", f.ErrMsg)
	case f.Kind == wire.KindSummary:
		sr.summary = &api.StreamSummary{
			Points: f.Summary.Points, Chunks: f.Summary.Chunks,
			Clusters: f.Summary.Clusters, CacheHit: f.Summary.CacheHit,
		}
		return nil, io.EOF
	case f.Kind == wire.KindLabels:
		return f.Labels, nil
	default:
		sr.err = fmt.Errorf("service: unexpected frame kind %d in label stream", f.Kind)
	}
	return nil, sr.err
}

// Summary returns the terminal summary record; ok is false until Next
// has returned io.EOF.
func (sr *StreamReader) Summary() (api.StreamSummary, bool) {
	if sr.summary == nil {
		return api.StreamSummary{}, false
	}
	return *sr.summary, true
}

// Collect drains the stream into one label slice plus the summary —
// convenience for callers that want streaming transport without
// incremental consumption.
func (sr *StreamReader) Collect() ([]int32, api.StreamSummary, error) {
	defer sr.Close()
	var labels []int32
	for {
		chunk, err := sr.Next()
		if err == io.EOF {
			sum, _ := sr.Summary()
			return labels, sum, nil
		}
		if err != nil {
			return labels, api.StreamSummary{}, err
		}
		labels = append(labels, chunk...)
	}
}

// Close releases the underlying response body; abandoning a stream
// without Close leaks the connection.
func (sr *StreamReader) Close() error { return sr.body.Close() }

// ShipSnapshot delivers one persist snapshot image (dataset or model)
// to the instance's replication sink. The body is a byte slice, so the
// usual transport retries replay identical bytes, and installs are
// idempotent on the receiving side — a duplicate delivery is a no-op.
func (c *Client) ShipSnapshot(raw []byte) (api.InstallResult, error) {
	var out api.InstallResult
	err := c.call(http.MethodPost, "/v1/replica/snapshot", snapshotContentType, raw, true, &out)
	return out, err
}

// LocalStats fetches the instance's own counters, bypassing the ring
// fan-out — the per-peer leg of the aggregate /v1/stats.
func (c *Client) LocalStats() (api.Stats, error) {
	var out api.Stats
	err := c.call(http.MethodGet, "/v1/stats", "", nil, true, &out)
	return out, err
}

// LocalDatasets lists the datasets resident on the instance itself,
// bypassing the ring fan-out.
func (c *Client) LocalDatasets() ([]api.DatasetInfo, error) {
	var out []api.DatasetInfo
	err := c.call(http.MethodGet, "/v1/datasets", "", nil, true, &out)
	return out, err
}

// RingStats fetches the ring-wide aggregated counters from a ring-mode
// instance.
func (c *Client) RingStats() (api.RingStats, error) {
	var out api.RingStats
	err := c.call(http.MethodGet, "/v1/stats", "", nil, false, &out)
	return out, err
}

// SetRing replaces the instance's ring membership; the instance
// reconciles its resident state (and snapshot directory) against the new
// ring and reports what moved.
func (c *Client) SetRing(peers []string) (api.RingUpdateResponse, error) {
	var out api.RingUpdateResponse
	err := c.call(http.MethodPost, "/v1/ring", "application/json",
		marshal(api.RingUpdateRequest{Peers: peers}), false, &out)
	return out, err
}
