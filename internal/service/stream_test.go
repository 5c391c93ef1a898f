package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/api"
	"repro/internal/data"
)

// ndjsonPoints renders rows as the stream wire format: one JSON array
// per line.
func ndjsonPoints(t testing.TB, pts [][]float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, p := range pts {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(raw)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestStreamAssignParity is the tentpole contract at the unit level:
// streaming labels equal the batch endpoint's labels for the same
// points, chunk boundaries land where StreamChunk says, and the summary
// accounts for every point without a refit.
func TestStreamAssignParity(t *testing.T) {
	const chunk = 7
	svc := New(Options{Workers: 2, CacheSize: 4, StreamChunk: chunk})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()

	d := data.SSet(2, 800, 1)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	c := NewClient(ts.URL, testClientOptions())
	if _, err := c.PutDataset("s2", "csv", csv.Bytes()); err != nil {
		t.Fatal(err)
	}
	req := api.FitRequest{
		Dataset:   "s2",
		Algorithm: "Ex-DPC",
		Params:    api.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin},
	}
	probes := d.Points.Rows()[:100]

	batch, err := c.Assign(api.AssignRequest{FitRequest: req, Points: probes})
	if err != nil {
		t.Fatal(err)
	}
	missesAfterBatch := svc.Stats().CacheMisses

	sr, err := c.AssignStream(req, bytes.NewReader(ndjsonPoints(t, probes)))
	if err != nil {
		t.Fatal(err)
	}
	var labels []int32
	records := 0
	for {
		part, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(part) > chunk {
			t.Errorf("label record has %d labels, chunk size is %d", len(part), chunk)
		}
		records++
		labels = append(labels, part...)
	}
	sum, ok := sr.Summary()
	if !ok {
		t.Fatal("stream ended without a summary")
	}
	sr.Close()

	if len(labels) != len(batch.Labels) {
		t.Fatalf("stream returned %d labels, batch %d", len(labels), len(batch.Labels))
	}
	for i := range labels {
		if labels[i] != batch.Labels[i] {
			t.Fatalf("label %d: stream %d, batch %d", i, labels[i], batch.Labels[i])
		}
	}
	wantRecords := (len(probes) + chunk - 1) / chunk
	if records != wantRecords || sum.Chunks != int64(wantRecords) {
		t.Errorf("stream sent %d records (summary says %d), want %d", records, sum.Chunks, wantRecords)
	}
	if sum.Points != int64(len(probes)) || sum.Clusters != batch.Clusters || !sum.CacheHit {
		t.Errorf("summary = %+v, want points=%d clusters=%d cache_hit=true", sum, len(probes), batch.Clusters)
	}
	if got := svc.Stats().CacheMisses; got != missesAfterBatch {
		t.Errorf("streaming refit the model (%d misses, want %d)", got, missesAfterBatch)
	}
	st := svc.Stats()
	if st.PointsAssigned != int64(2*len(probes)) {
		t.Errorf("points_assigned = %d, want %d", st.PointsAssigned, 2*len(probes))
	}
}

// TestStreamAssignEmpty: a header with no points is a success with an
// all-zero summary, mirroring the batch path's "labels":[] behavior.
func TestStreamAssignEmpty(t *testing.T) {
	svc := New(Options{Workers: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())
	if _, err := c.PutDataset("tiny", "csv", []byte("1,2\n3,4\n5,6\n")); err != nil {
		t.Fatal(err)
	}
	req := api.FitRequest{Dataset: "tiny", Algorithm: "Ex-DPC", Params: api.Params{DCut: 10, RhoMin: 0, DeltaMin: 11}}
	sr, err := c.AssignStream(req, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	labels, sum, err := sr.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 0 || sum.Points != 0 || sum.Chunks != 0 {
		t.Errorf("empty stream: labels=%v summary=%+v", labels, sum)
	}
}

// TestStreamAssignPreStreamErrors: failures before any labeling keep the
// batch endpoint's JSON statuses — no 200, no NDJSON.
func TestStreamAssignPreStreamErrors(t *testing.T) {
	svc := New(Options{Workers: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())
	if _, err := c.PutDataset("tiny", "csv", []byte("1,2\n3,4\n5,6\n")); err != nil {
		t.Fatal(err)
	}
	good := api.Params{DCut: 10, RhoMin: 0, DeltaMin: 11}

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/assign/stream", ndjsonContentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	if _, err := c.AssignStream(api.FitRequest{Dataset: "nope", Algorithm: "Ex-DPC", Params: good}, strings.NewReader("")); err == nil {
		t.Error("unknown dataset accepted")
	} else {
		var se *api.APIError
		if !errors.As(err, &se) || se.Status != http.StatusNotFound {
			t.Errorf("unknown dataset: err = %v, want api.APIError 404", err)
		}
	}
	if code, body := post("not json\n[1,2]\n"); code != http.StatusBadRequest {
		t.Errorf("garbage header: code=%d body=%s", code, body)
	}
	if code, body := post(`{"dataset":"tiny","algorithm":"Ex-DPC","params":{"dcut":10,"delta_min":11}} trailing` + "\n"); code != http.StatusBadRequest {
		t.Errorf("trailing garbage on header line: code=%d body=%s", code, body)
	}
	if code, body := post(""); code != http.StatusBadRequest {
		t.Errorf("empty body: code=%d body=%s", code, body)
	}
	// A header line over the per-line cap is a size violation, not a
	// parse error.
	huge := `{"dataset":"` + strings.Repeat("x", maxStreamLineBytes) + `"}`
	if code, _ := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized header line: code=%d, want 413", code)
	}
}

// panicLog counts the recovered handler panics a server logs.
type panicLog struct{ n atomic.Int64 }

func (p *panicLog) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte("panic serving")) {
		p.n.Add(1)
	}
	return len(b), nil
}

// TestStreamRejectionClosesConnection: a stream rejected before it
// answers 200 leaves its body unread. Kept alive, the full-duplex
// connection would have that body drained after the handler returned,
// and net/http races the drain's background read against reading the
// next request: a recovered "invalid concurrent Body.Read call" panic
// and a dropped connection. The rejection must close the connection
// instead.
func TestStreamRejectionClosesConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(NewHandler(New(Options{Workers: 1})))
	panics := &panicLog{}
	ts.Config.ErrorLog = log.New(panics, "", 0)
	ts.Start()
	defer ts.Close()
	header := `{"dataset":"nope","algorithm":"Ex-DPC","params":{"dcut":1,"delta_min":2}}` + "\n"
	body := append([]byte(header), bytes.Repeat([]byte("[1,2]\n"), 15000)...)
	for i := 0; i < 20; i++ {
		// A reader the transport cannot size, so the body goes chunked
		// like a live stream's.
		resp, err := http.Post(ts.URL+"/v1/assign/stream", ndjsonContentType, io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || !resp.Close {
			t.Fatalf("unknown-dataset stream: status %d, Connection: close %v; want 404 and close", resp.StatusCode, resp.Close)
		}
	}
	ts.Close() // waits for every connection, so every panic is logged
	if n := panics.n.Load(); n > 0 {
		t.Fatalf("server recovered %d handler panic(s)", n)
	}
}

// TestStreamAssignMidStreamErrors: once labels are flowing the status is
// spent, so failures must arrive as a terminal error record — after the
// chunks that were already answered — and surface through the client as
// an error, never as a silently short label set.
func TestStreamAssignMidStreamErrors(t *testing.T) {
	const chunk = 4
	svc := New(Options{Workers: 1, StreamChunk: chunk})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())
	if _, err := c.PutDataset("tiny", "csv", []byte("1,2\n3,4\n5,6\n9,9\n")); err != nil {
		t.Fatal(err)
	}
	req := api.FitRequest{Dataset: "tiny", Algorithm: "Ex-DPC", Params: api.Params{DCut: 10, RhoMin: 0, DeltaMin: 11}}

	cases := []struct {
		name   string
		points string
		want   string // substring of the terminal error
		chunks int    // full chunks answered before the failure
	}{
		{"garbage line", "[1,2]\n[1,2]\n[1,2]\n[1,2]\n[1,2]\nnot json\n", "stream point 5", 1},
		{"wrong dimension", "[1,2]\n[1,2,3]\n", "dimension 3, want 2", 0},
		{"non-array line", "[1,2]\n{\"x\":1}\n", "stream point 1", 0},
	}
	for _, tc := range cases {
		sr, err := c.AssignStream(req, strings.NewReader(tc.points))
		if err != nil {
			t.Fatalf("%s: open stream: %v", tc.name, err)
		}
		got := 0
		for {
			_, err := sr.Next()
			if err == nil {
				got++
				continue
			}
			if err == io.EOF {
				t.Errorf("%s: stream ended in success", tc.name)
				break
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
			break
		}
		if got != tc.chunks {
			t.Errorf("%s: %d chunks answered before the error, want %d", tc.name, got, tc.chunks)
		}
		sr.Close()
	}
}

// TestStreamReaderTruncated: a stream cut off before the summary — the
// shape of a relay hop dying — must be an error, not a quiet success
// with fewer labels.
func TestStreamReaderTruncated(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjsonContentType)
		fmt.Fprintln(w, `{"labels":[0,1]}`)
		// No summary, no error record: the connection just ends.
	}))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())
	sr, err := c.AssignStream(api.FitRequest{Dataset: "x", Algorithm: "Ex-DPC"}, strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	_, err = sr.Next()
	if err == nil || err == io.EOF || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncated stream: err = %v, want truncation error", err)
	}
	if _, ok := sr.Summary(); ok {
		t.Error("truncated stream produced a summary")
	}
}

// TestServiceAssignStreamDirect exercises the Service-level API without
// HTTP: the in-process path the bench harness and embedders use.
func TestServiceAssignStreamDirect(t *testing.T) {
	svc := New(Options{Workers: 2, StreamChunk: 3})
	d := data.SSet(2, 500, 1)
	if _, err := svc.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	p := coreParams(api.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin})
	probes := d.Points.Rows()[:10]
	i := 0
	next := func() ([]float64, error) {
		if i == len(probes) {
			return nil, io.EOF
		}
		i++
		return probes[i-1], nil
	}
	var got []int32
	sum, err := svc.AssignStream("s2", "Ex-DPC", p, next, func(labels []int32) error {
		got = append(got, labels...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := svc.Assign("s2", "Ex-DPC", p, probes)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream %d labels, batch %d", len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("label %d: stream %d, batch %d", j, got[j], want[j])
		}
	}
	if sum.Points != int64(len(probes)) || sum.Chunks != 4 {
		t.Errorf("summary = %+v, want 10 points in 4 chunks", sum)
	}

	// An emit error (client gone) aborts the stream.
	i = 0
	sentinel := errors.New("consumer gone")
	if _, err := svc.AssignStream("s2", "Ex-DPC", p, next, func([]int32) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Errorf("emit error not propagated: %v", err)
	}
}
