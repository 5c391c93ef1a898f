package service

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/data"
	"repro/internal/wire"
)

// TestIndexShipsToReplicas: once the primary pays a decision-graph
// index build, the index travels to the key's replicas alongside the
// dataset and model snapshots, so a promoted replica re-cuts warm. The
// replica must hold a resident, ready index for the current version
// without ever having built one itself.
func TestIndexShipsToReplicas(t *testing.T) {
	h := startRingRF(t, 2, 2, nil)
	d := data.SSet(2, 400, 7)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	const name = "pts"
	h.uploadCSV(0, name, csv.Bytes())

	primary := -1
	for i, rt := range h.routers {
		if owners := rt.owners(name); len(owners) > 0 && owners[0] == rt.self {
			primary = i
		}
	}
	if primary == -1 {
		t.Fatal("no primary for the key")
	}
	replica := 1 - primary

	if _, err := h.clients[primary].DecisionGraph(name, d.DCut, 10); err != nil {
		t.Fatal(err)
	}

	for i, svc := range h.svcs {
		st := svc.Stats()
		if i == primary && st.IndexBuilds != 1 {
			t.Errorf("primary paid %d builds, want 1", st.IndexBuilds)
		}
		if i == replica && st.IndexBuilds != 0 {
			t.Errorf("replica paid %d builds, want 0 (the index ships)", st.IndexBuilds)
		}
	}

	// The replica holds the shipped index, resident and ready at the
	// dataset's current version.
	rs := h.svcs[replica]
	rs.mu.RLock()
	e, ok := rs.datasets[name]
	rs.mu.RUnlock()
	if !ok {
		t.Fatal("replica lost the dataset")
	}
	idx, ok := rs.residentIndex(name, e.version, d.DCut)
	if !ok || idx == nil {
		t.Fatal("replica has no resident index after the primary's build; the ship did not land")
	}

	// Serving from the shipped copy: the replica's own decision graph is
	// an index reuse, not a rebuild, and matches the primary's answer.
	gotP, err := h.svcs[primary].DecisionGraph(name, d.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := rs.DecisionGraph(name, d.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !gotR.IndexReused {
		t.Error("replica rebuilt instead of reusing the shipped index")
	}
	if len(gotR.Points) != len(gotP.Points) {
		t.Fatalf("replica graph has %d points, primary %d", len(gotR.Points), len(gotP.Points))
	}
	for i := range gotP.Points {
		if gotP.Points[i] != gotR.Points[i] {
			t.Fatalf("graph point %d differs: primary %+v, replica %+v", i, gotP.Points[i], gotR.Points[i])
		}
	}
	if st := rs.Stats(); st.IndexBuilds != 0 {
		t.Errorf("replica paid %d builds after serving from the shipped index", st.IndexBuilds)
	}
}

// TestSelfHealShipsIndex: the membership-change self-heal pass re-ships
// indexes too — a replica that joined after the build still ends up
// warm.
func TestSelfHealShipsIndex(t *testing.T) {
	h := startRingRF(t, 2, 2, nil)
	d := data.SSet(3, 300, 11)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	const name = "heal"
	h.uploadCSV(0, name, csv.Bytes())

	primary := -1
	for i, rt := range h.routers {
		if owners := rt.owners(name); len(owners) > 0 && owners[0] == rt.self {
			primary = i
		}
	}
	replica := 1 - primary

	// Build on the primary, then wipe the replica's index (simulating a
	// replica that missed the post-build ship) and force a self-heal.
	if _, err := h.clients[primary].DecisionGraph(name, d.DCut, 5); err != nil {
		t.Fatal(err)
	}
	h.svcs[replica].dropIndex(name)
	h.routers[primary].selfHeal()

	rs := h.svcs[replica]
	rs.mu.RLock()
	e, ok := rs.datasets[name]
	rs.mu.RUnlock()
	if !ok {
		t.Fatal("replica lost the dataset")
	}
	if _, ok := rs.residentIndex(name, e.version, d.DCut); !ok {
		t.Fatal("self-heal did not restore the replica's index")
	}
}

// TestFrameDecisionGraphShipsIndex: a decision graph answered in the
// frame codec pays the same index build as the JSON call, and ships it
// the same way — replication follows the Service result, not the
// response encoding.
func TestFrameDecisionGraphShipsIndex(t *testing.T) {
	h := startRingRF(t, 2, 2, nil)
	d := data.SSet(2, 400, 9)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	const name = "frames"
	h.uploadCSV(0, name, csv.Bytes())
	primary := -1
	for i, rt := range h.routers {
		if owners := rt.owners(name); len(owners) > 0 && owners[0] == rt.self {
			primary = i
		}
	}
	if primary == -1 {
		t.Fatal("no primary for the key")
	}
	replica := 1 - primary

	url := fmt.Sprintf("%s/v1/decision-graph?dataset=%s&dcut=%s&limit=10",
		h.addrs[primary], name, strconv.FormatFloat(d.DCut, 'g', -1, 64))
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.ContentType {
		t.Fatalf("frame decision graph: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if st := h.svcs[primary].Stats(); st.IndexBuilds != 1 {
		t.Errorf("primary paid %d builds, want 1", st.IndexBuilds)
	}

	rs := h.svcs[replica]
	got, err := rs.DecisionGraph(name, d.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IndexReused {
		t.Error("replica rebuilt the index: the frame-coded build never shipped")
	}
	if st := rs.Stats(); st.IndexBuilds != 0 {
		t.Errorf("replica paid %d builds, want 0 (the index ships)", st.IndexBuilds)
	}
}
