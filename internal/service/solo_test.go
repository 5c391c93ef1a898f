package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/data"
)

// TestRingOfOneAddsNoCapability: NewHandler is the route table over a
// ring of one, and the ring of one must look exactly like a single
// instance — no ring-admin routes, no ring identity, local-only views.
func TestRingOfOneAddsNoCapability(t *testing.T) {
	svc := New(Options{Workers: 1})
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())
	d := data.SSet(2, 200, 3)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if _, err := c.PutDataset(name, "csv", csv.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	for _, rq := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/ring", ""},
		{http.MethodPost, "/v1/ring", `{"peers":["http://127.0.0.1:1"]}`},
		{http.MethodPost, "/v1/replica/snapshot", "DPS1"},
	} {
		req, err := http.NewRequest(rq.method, ts.URL+rq.path, bytes.NewReader([]byte(rq.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s on a ring of one: status %d, want 404", rq.method, rq.path, resp.StatusCode)
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, buf.Bytes())
		}
		return buf.Bytes()
	}

	var health map[string]string
	if err := json.Unmarshal(get("/healthz"), &health); err != nil {
		t.Fatal(err)
	}
	if _, ok := health["self"]; ok || health["status"] != "ok" {
		t.Errorf("/healthz = %v, want status ok and no self", health)
	}

	// The local api.Stats shape, not api.RingStats: strict decoding into
	// Stats rejects any ring field.
	dec := json.NewDecoder(bytes.NewReader(get("/v1/stats")))
	dec.DisallowUnknownFields()
	var st api.Stats
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("/v1/stats is not api.Stats: %v", err)
	}
	if st.Datasets != 2 {
		t.Errorf("stats count %d datasets, want 2", st.Datasets)
	}

	var infos []api.DatasetInfo
	if err := json.Unmarshal(get("/v1/datasets"), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Errorf("/v1/datasets = %+v, want the two local datasets a and b", infos)
	}
}
