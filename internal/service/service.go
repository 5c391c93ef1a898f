// Package service is the fit-once/assign-many serving layer behind cmd/dpcd:
// a named dataset registry, an LRU cache of fitted core.Model instances
// keyed by (dataset, algorithm, params) with single-flight fit
// deduplication, and request metrics. Heavy traffic for the same model
// pays one ClusterDataset pass; everything after that is O(log n)
// kd-tree assignment per point.
package service

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/drift"
	"repro/internal/geom"
	"repro/internal/persist"
)

// Options configures a Service.
type Options struct {
	// CacheSize is the maximum number of fitted models kept; <= 0 means 8.
	CacheSize int
	// Workers is the worker count used for fits and batch assigns;
	// <= 0 means all CPUs. Request parameters cannot override it, so the
	// cache never holds duplicate models differing only in thread count.
	Workers int
	// Store, when non-nil, makes the service durable: datasets are
	// snapshotted on upload, models on fit completion, and New warm-loads
	// both so a restarted daemon serves previously fitted models with
	// zero refits. Persistence failures are logged and counted in Stats
	// but never fail the request — durability degrades, serving does not.
	Store *persist.Store
	// Owns, when non-nil, restricts the warm load to datasets the filter
	// accepts. Ring mode sets it to "this shard owns the key": snapshots
	// for keys owned elsewhere stay on disk, unloaded, so a later
	// membership change can Reconcile them back in with zero refits.
	Owns func(dataset string) bool
	// StreamChunk is the number of points labeled (and answered) per
	// response record on /v1/assign/stream; <= 0 scales it to Workers.
	// Memory per in-flight stream is O(StreamChunk), never O(stream).
	StreamChunk int
	// MaxStreams caps concurrent /v1/assign/stream requests; <= 0 means
	// 64. A request over the cap is refused up front (HTTP 429) rather
	// than queued: a stream holds its slot for its whole life, and
	// invisible queueing behind long streams is worse than an honest
	// retry signal.
	MaxStreams int
	// MaxStreamPoints caps the points one stream may submit; <= 0 means
	// 1<<30. The breach surfaces as the stream's terminal error record —
	// labels already emitted stay valid.
	MaxStreamPoints int64
	// IndexMaxEdges caps the stored entries of one dataset's density
	// index (each costs 12 bytes); <= 0 means 1<<25 (~384 MiB). A
	// decision-graph or sweep request whose d_cut would exceed the budget
	// fails with a clear error instead of exhausting memory.
	IndexMaxEdges int64
	// Drift, when non-nil, enables assign-path drift tracking and
	// trip-triggered background refits with atomic model swap (see
	// internal/service/drift.go). Nil keeps the pre-drift behavior and
	// its zero per-point overhead.
	Drift *drift.Config
	// Window caps a dataset's point count across POST /v1/points
	// appends: once an append would exceed it, the oldest points expire
	// (sliding window). <= 0 means unbounded.
	Window int64
}

func (o Options) cacheSize() int {
	if o.CacheSize > 0 {
		return o.CacheSize
	}
	return 8
}

func (o Options) maxStreams() int {
	if o.MaxStreams > 0 {
		return o.MaxStreams
	}
	return 64
}

func (o Options) maxStreamPoints() int64 {
	if o.MaxStreamPoints > 0 {
		return o.MaxStreamPoints
	}
	return 1 << 30
}

func (o Options) indexMaxEdges() int64 {
	if o.IndexMaxEdges > 0 {
		return o.IndexMaxEdges
	}
	return 1 << 25
}

// Service owns the dataset registry and the model cache.
type Service struct {
	opts Options

	mu       sync.RWMutex
	datasets map[string]*datasetEntry

	cache *modelCache

	// indexMu guards indexes: at most one density index per dataset,
	// built single-flight (the entry is inserted before the build runs,
	// so concurrent requests join it instead of building again).
	indexMu sync.Mutex
	indexes map[string]*indexEntry

	// streamSem bounds concurrent label streams; each stream holds one
	// slot from just after its fit until it finishes.
	streamSem chan struct{}

	store *persist.Store
	// The restored counters are atomic, not plain ints guarded by mu:
	// ring reconciles bump them at runtime while fan-out /stats reads
	// them from another goroutine.
	datasetsRestored atomic.Int64
	modelsRestored   atomic.Int64
	persistErrors    atomic.Int64

	// Replica installs (snapshot shipping from a key's primary). Like the
	// restored counters these are warm-loads, never refits, and never
	// touch the cache hit/miss counters.
	datasetsReplicated atomic.Int64
	modelsReplicated   atomic.Int64

	fitRequests    atomic.Int64
	assignRequests atomic.Int64
	pointsAssigned atomic.Int64

	indexBuilds     atomic.Int64
	indexCuts       atomic.Int64
	indexesRestored atomic.Int64

	// Drift subsystem (see drift.go): per-lineage serving state keyed by
	// (dataset, algorithm, params) — deliberately not version — plus the
	// ring hooks and the append/expiry counters.
	driftMu          sync.Mutex
	drifts           map[driftKey]*driftState
	driftPrimary     func(dataset string) bool
	onDriftRefit     func(dataset string)
	driftTrips       atomic.Int64
	driftRefits      atomic.Int64
	driftStaleServes atomic.Int64
	pointsAppended   atomic.Int64
	pointsExpired    atomic.Int64
	indexUpdates     atomic.Int64
}

type datasetEntry struct {
	points *geom.Dataset
	// version increments on re-upload so cached models fitted on the old
	// points can never serve the new name.
	version uint64
}

// dsInfo is the one place a dataset becomes its wire description, so
// the precision echo cannot drift between the listing, the single-get,
// and the upload response.
func dsInfo(name string, ds *geom.Dataset) api.DatasetInfo {
	return api.DatasetInfo{Name: name, N: ds.N, Dim: ds.Dim, Precision: ds.Precision()}
}

// New creates a service. With Options.Store set it warm-loads the
// dataset registry and repopulates the model cache from the snapshot
// directory — the kd-trees are rebuilt, the clustering itself is not
// re-run. Damaged snapshots are skipped (the store logs them); they cost
// a refit on first request, nothing more.
func New(opts Options) *Service {
	s := &Service{
		opts:      opts,
		datasets:  make(map[string]*datasetEntry),
		cache:     newModelCache(opts.cacheSize()),
		indexes:   make(map[string]*indexEntry),
		drifts:    make(map[driftKey]*driftState),
		streamSem: make(chan struct{}, opts.maxStreams()),
	}
	if opts.Store != nil {
		s.store = opts.Store
		dss, models := opts.Store.RestoreOwned(opts.Workers, opts.Owns)
		for _, d := range dss {
			s.datasets[d.Name] = &datasetEntry{points: d.Points, version: d.Version}
			s.datasetsRestored.Add(1)
		}
		s.restoreIndexes(dss, opts.Owns)
		// More snapshots than cache slots: keep the most recently
		// persisted (manifest order is persist order), so ModelsRestored
		// counts what is actually resident and no phantom evictions show
		// up in Stats before any traffic.
		if cap := opts.cacheSize(); len(models) > cap {
			models = models[len(models)-cap:]
		}
		for _, rm := range models {
			if s.cache.put(s.restoredKey(rm.Key), rm.Model) {
				s.modelsRestored.Add(1)
			}
		}
	}
	return s
}

// restoredKey maps a persisted model key (Workers zeroed on disk) onto
// the in-memory cache key (Workers is this host's policy).
func (s *Service) restoredKey(k persist.ModelKey) modelKey {
	return modelKey{
		dataset:   k.Dataset,
		version:   k.Version,
		algorithm: k.Algorithm,
		params:    s.normalize(k.Algorithm, k.Params),
	}
}

// indexEntry is one dataset's density index, single-flight like a cache
// entry: it is inserted (with ready open) before the build runs, so
// concurrent requests wait on ready instead of building twice. A failed
// build removes the entry; the next request retries.
type indexEntry struct {
	version uint64
	dcMax   float64 // build ceiling; == idx.DCutMax() once ready
	ready   chan struct{}
	idx     *densindex.Index
	err     error
}

// restoreIndexes rebuilds warm-loaded index snapshots against the
// restored datasets. Version and fingerprint must both match — an index
// must never serve different points — and FromParts re-validates the
// CSR invariants, so a damaged or forged snapshot costs one rebuild on
// demand, nothing more.
func (s *Service) restoreIndexes(dss []*persist.DatasetSnapshot, owns func(string) bool) {
	byName := make(map[string]*persist.DatasetSnapshot, len(dss))
	for _, d := range dss {
		byName[d.Name] = d
	}
	for _, snap := range s.store.RestoreIndexesOwned(owns) {
		d, ok := byName[snap.Dataset]
		if !ok || d.Version != snap.Version || d.Fingerprint != snap.DatasetFingerprint {
			s.store.Log("service: skipping index %s: its dataset v%d was not restored or changed", snap.Dataset, snap.Version)
			continue
		}
		idx, err := densindex.FromParts(d.Points, snap.DCutMax, snap.Start, snap.IDs, snap.Sq)
		if err != nil {
			s.store.Log("service: skipping index %s: %v", snap.Dataset, err)
			continue
		}
		ready := make(chan struct{})
		close(ready)
		s.indexMu.Lock()
		s.indexes[snap.Dataset] = &indexEntry{
			version: snap.Version, dcMax: idx.DCutMax(), ready: ready, idx: idx,
		}
		s.indexMu.Unlock()
		s.indexesRestored.Add(1)
	}
}

// dropIndex forgets a dataset's resident index (re-upload, eviction).
// An in-flight build keeps running for its waiters but its result is no
// longer reachable.
func (s *Service) dropIndex(name string) {
	s.indexMu.Lock()
	delete(s.indexes, name)
	s.indexMu.Unlock()
}

// adoptIndex installs an already-validated index as the dataset's
// resident entry, unless one at least as capable (same version, ceiling
// covering the newcomer's) is already resident or in flight. Reports
// whether the index was adopted.
func (s *Service) adoptIndex(name string, version uint64, idx *densindex.Index) bool {
	ready := make(chan struct{})
	close(ready)
	s.indexMu.Lock()
	defer s.indexMu.Unlock()
	if ent := s.indexes[name]; ent != nil && ent.version == version && ent.dcMax >= idx.DCutMax() {
		return false
	}
	s.indexes[name] = &indexEntry{version: version, dcMax: idx.DCutMax(), ready: ready, idx: idx}
	return true
}

// residentIndex returns the dataset's index only if it is already built
// for this version and covers dcut — the condition under which a fit
// request may be satisfied by a re-cut without ever paying a build.
func (s *Service) residentIndex(name string, version uint64, dcut float64) (*densindex.Index, bool) {
	s.indexMu.Lock()
	ent := s.indexes[name]
	s.indexMu.Unlock()
	if ent == nil || ent.version != version || ent.dcMax < dcut {
		return nil, false
	}
	select {
	case <-ent.ready:
	default:
		return nil, false // still building; a fit should not wait on it
	}
	if ent.err != nil || ent.idx == nil {
		return nil, false
	}
	return ent.idx, true
}

// indexHeadroom scales a requested d_cut up to the build ceiling, so an
// analyst nudging d_cut upward re-cuts the existing index instead of
// triggering a rebuild per nudge.
const indexHeadroom = 1.5

// ensureIndex returns the dataset's density index, building it (or
// rebuilding it with a larger ceiling) if the resident one does not
// cover needDC. reused reports whether the caller joined an index that
// was already resident or in flight — false means this request
// initiated the build it waited on.
func (s *Service) ensureIndex(name string, needDC float64) (idx *densindex.Index, version uint64, reused bool, err error) {
	// The headroom absorbs an analyst nudging d_cut upward without a
	// rebuild per nudge.
	return s.ensureIndexCeil(name, needDC, needDC*indexHeadroom)
}

// ensureIndexCeil is ensureIndex with an explicit build ceiling: a sweep
// knows its whole grid up front, so it builds at exactly the grid
// maximum instead of paying the interactive-nudge headroom (edge counts
// grow with the ceiling's square).
func (s *Service) ensureIndexCeil(name string, needDC, buildDC float64) (idx *densindex.Index, version uint64, reused bool, err error) {
	if !(needDC > 0) {
		return nil, 0, false, fmt.Errorf("service: dcut must be positive, got %g", needDC)
	}
	for attempts := 0; ; attempts++ {
		s.mu.RLock()
		e, ok := s.datasets[name]
		s.mu.RUnlock()
		if !ok {
			return nil, 0, false, fmt.Errorf("service: unknown dataset %q", name)
		}

		s.indexMu.Lock()
		ent := s.indexes[name]
		if ent != nil && ent.version == e.version && ent.dcMax >= needDC {
			s.indexMu.Unlock()
			<-ent.ready
			if ent.err == nil {
				return ent.idx, e.version, true, nil
			}
			// The build this caller joined failed; its owner already removed
			// the entry. Retry once from scratch, then surface the error.
			if attempts > 0 {
				return nil, 0, false, ent.err
			}
			continue
		}
		ent = &indexEntry{version: e.version, dcMax: buildDC, ready: make(chan struct{})}
		s.indexes[name] = ent
		s.indexMu.Unlock()

		// Build outside both locks; joiners block on ready. The headroom
		// build is retried at exactly needDC when it blows the edge budget —
		// the analyst asked for needDC, not for the convenience margin.
		ent.idx, ent.err = densindex.Build(e.points, ent.dcMax, s.opts.Workers, s.opts.indexMaxEdges())
		if errors.Is(ent.err, densindex.ErrTooDense) {
			ent.dcMax = needDC
			ent.idx, ent.err = densindex.Build(e.points, needDC, s.opts.Workers, s.opts.indexMaxEdges())
		}
		if ent.err != nil {
			s.indexMu.Lock()
			if s.indexes[name] == ent {
				delete(s.indexes, name)
			}
			s.indexMu.Unlock()
			close(ent.ready)
			return nil, 0, false, ent.err
		}
		ent.dcMax = ent.idx.DCutMax()
		close(ent.ready)
		s.indexBuilds.Add(1)
		if s.store != nil {
			s.persistIndex(name, e.version, ent.idx)
		}
		return ent.idx, e.version, false, nil
	}
}

// persistIndex snapshots a freshly built index so a restart warm-loads
// it. Failures degrade durability, not serving.
func (s *Service) persistIndex(name string, version uint64, idx *densindex.Index) {
	s.mu.RLock()
	e, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok || e.version != version {
		return // replaced while building; nothing worth persisting
	}
	dcMax, start, ids, sq := idx.Parts()
	snap := &persist.IndexSnapshot{
		Dataset: name, Version: version,
		DatasetFingerprint: e.points.Fingerprint(),
		DCutMax:            dcMax, Start: start, IDs: ids, Sq: sq,
	}
	if err := s.store.SaveIndex(snap); err != nil {
		s.persistErrors.Add(1)
		s.store.Log("service: persisting index %q v%d: %v", name, version, err)
	}
}

// Reconcile aligns resident state with ring ownership after a membership
// change: datasets (and their cached models) this shard no longer owns
// are evicted from memory — their snapshots stay on disk untouched, for
// the shard that owns them now or for this one if ownership returns —
// and snapshots it now owns are warm-loaded, so a rebalance costs zero
// refits. A nil filter owns everything (single-instance mode) and
// reconciling is a no-op.
func (s *Service) Reconcile(owns func(dataset string) bool) api.ReconcileStats {
	var st api.ReconcileStats
	if owns == nil {
		return st
	}
	s.mu.Lock()
	var gone []string
	resident := make(map[string]bool, len(s.datasets))
	for name := range s.datasets {
		if !owns(name) {
			delete(s.datasets, name)
			gone = append(gone, name)
			continue
		}
		resident[name] = true
	}
	s.mu.Unlock()
	for _, name := range gone {
		s.cache.purgeStale(name, 0)
		s.dropIndex(name)
		s.dropDriftStates(name)
	}
	st.DatasetsEvicted = len(gone)
	if s.store == nil {
		return st
	}
	// The snapshot decode is slow, so it runs outside the lock; the
	// resident set cannot lose entries meanwhile (evictions only happen
	// here), so the skip condition stays valid. An upload racing the
	// reconcile is resolved at insert time below — the upload wins.
	dss, models := s.store.RestoreOwned(s.opts.Workers, func(name string) bool {
		return owns(name) && !resident[name]
	})
	restored := make(map[string]uint64, len(dss))
	for _, d := range dss {
		s.mu.Lock()
		if _, ok := s.datasets[d.Name]; ok {
			s.mu.Unlock()
			continue
		}
		s.datasets[d.Name] = &datasetEntry{points: d.Points, version: d.Version}
		s.mu.Unlock()
		restored[d.Name] = d.Version
		st.DatasetsLoaded++
		s.datasetsRestored.Add(1)
	}
	for _, rm := range models {
		// Only attach models to the dataset snapshot that actually landed;
		// if a concurrent upload won the insert race, its version differs
		// and the snapshot model must not serve it.
		if v, ok := restored[rm.Key.Dataset]; !ok || v != rm.Key.Version {
			continue
		}
		if s.cache.put(s.restoredKey(rm.Key), rm.Model) {
			st.ModelsLoaded++
			s.modelsRestored.Add(1)
		}
	}
	// Index snapshots ride the same rebalance: only those matching a
	// dataset that landed in this pass are rebuilt.
	landed := dss[:0]
	for _, d := range dss {
		if v, ok := restored[d.Name]; ok && v == d.Version {
			landed = append(landed, d)
		}
	}
	s.restoreIndexes(landed, func(name string) bool {
		_, ok := restored[name]
		return ok
	})
	return st
}

// PutDataset registers (or replaces) a named dataset. The dataset is
// validated once here — NaN/Inf coordinates are rejected so a malformed
// upload cannot reach the clustering kernels — and frozen: the service
// keeps the pointer, so callers must not mutate it afterwards. Replacing
// a name purges every cached model fitted on the old points; re-uploading
// bit-identical points is a no-op that keeps the version, the cached
// models, and the snapshots (an idempotent provisioning script must not
// throw away the warm cache).
func (s *Service) PutDataset(name string, ds *geom.Dataset) (api.DatasetInfo, error) {
	if name == "" {
		return api.DatasetInfo{}, fmt.Errorf("service: empty dataset name")
	}
	if ds == nil || ds.N == 0 {
		return api.DatasetInfo{}, fmt.Errorf("service: dataset %q is empty", name)
	}
	if err := ds.Validate(); err != nil {
		return api.DatasetInfo{}, fmt.Errorf("service: dataset %q: %w", name, err)
	}
	s.mu.Lock()
	version := uint64(1)
	if old, ok := s.datasets[name]; ok {
		// Exact comparison, not a fingerprint: uploads are untrusted HTTP
		// bodies, and a 64-bit hash collision here would silently keep
		// serving the old points under the new upload. Precision is part
		// of identity — the same values re-uploaded at the other width
		// are a replacement, not a no-op (the kernels would read
		// different bytes).
		if old.points.Dim == ds.Dim &&
			slices.Equal(old.points.Coords, ds.Coords) &&
			slices.Equal(old.points.Coords32, ds.Coords32) {
			points, ver := old.points, old.version
			s.mu.Unlock()
			if s.store != nil {
				// Self-heal: if the snapshot for this version failed to
				// write earlier (or was damaged on disk since), the
				// idempotent re-upload is the retry opportunity.
				if err := s.store.EnsureDataset(name, ver, points); err != nil {
					s.persistErrors.Add(1)
					s.store.Log("service: re-persisting dataset %q v%d: %v", name, ver, err)
				}
			}
			return dsInfo(name, points), nil
		}
		version = old.version + 1
	}
	s.datasets[name] = &datasetEntry{points: ds, version: version}
	s.mu.Unlock()
	if version > 1 {
		s.cache.purgeStale(name, version)
		// The replaced points' index must never re-cut for the new name.
		s.dropIndex(name)
		// A wholesale replacement also retires the drift lineages: the old
		// model is meaningless for the new points, so the next assign fits
		// fresh instead of stale-serving it. (Appends keep their lineages —
		// that continuity is the sliding-window feature.)
		s.dropDriftStates(name)
	}
	if s.store != nil {
		// SaveDataset also drops the replaced version's snapshots — the
		// disk mirror of the purge above.
		if err := s.store.SaveDataset(name, version, ds); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting dataset %q v%d: %v", name, version, err)
		}
	}
	return dsInfo(name, ds), nil
}

// Dataset returns a registered dataset.
func (s *Service) Dataset(name string) (*geom.Dataset, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.datasets[name]
	if !ok {
		return nil, false
	}
	return e.points, true
}

// Datasets lists the registry sorted by name.
func (s *Service) Datasets() []api.DatasetInfo {
	s.mu.RLock()
	out := make([]api.DatasetInfo, 0, len(s.datasets))
	for name, e := range s.datasets {
		out = append(out, dsInfo(name, e.points))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out
}

// normalize canonicalizes request parameters for cache keying: the
// worker count is service policy (not part of model identity), and
// parameters the chosen algorithm ignores (Seed for the deterministic
// ones, Epsilon for everything but S-Approx-DPC) are zeroed so
// identical models are fitted and cached once.
func (s *Service) normalize(algorithm string, p core.Params) core.Params {
	p = core.CanonicalParams(algorithm, p)
	p.Workers = s.opts.Workers
	return p
}

// FitResult is the outcome of one fit request. IndexCut reports that
// the model was derived by re-cutting the dataset's density index
// instead of running the algorithm — byte-identical labels, a fraction
// of the cost, and no cache-miss accounting (no fit happened).
type FitResult struct {
	Model    *core.Model
	CacheHit bool
	IndexCut bool
}

// Fit returns the model for (dataset, algorithm, params), fitting it at
// most once: concurrent requests for the same key share a single
// ClusterDataset pass, later requests hit the LRU cache. algorithm is a
// paper name resolved against the full ten-algorithm registry. When the
// dataset's density index is already resident (built by an earlier
// decision-graph or sweep request, or warm-loaded from a snapshot) and
// covers the requested d_cut, a covered algorithm's model is derived by
// an index re-cut instead of a fresh fit.
func (s *Service) Fit(dataset, algorithm string, p core.Params) (FitResult, error) {
	s.fitRequests.Add(1)
	alg, ok := core.AlgorithmByName(algorithm)
	if !ok {
		return FitResult{}, fmt.Errorf("service: unknown algorithm %q", algorithm)
	}
	s.mu.RLock()
	e, ok := s.datasets[dataset]
	s.mu.RUnlock()
	if !ok {
		return FitResult{}, fmt.Errorf("service: unknown dataset %q", dataset)
	}
	p = s.normalize(algorithm, p)
	if err := p.Validate(); err != nil {
		return FitResult{}, err
	}
	key := modelKey{dataset: dataset, version: e.version, algorithm: algorithm, params: p}
	fill := func() (*core.Model, error) {
		return core.Fit(alg, e.points, p)
	}
	indexCut := false
	if densindex.Covers(algorithm) {
		if idx, ok := s.residentIndex(dataset, e.version, p.DCut); ok {
			indexCut = true
			fill = func() (*core.Model, error) {
				return s.cutModel(idx, algorithm, e.points, p)
			}
		}
	}
	model, hit, err := s.cache.getOrFit(key, !indexCut, fill)
	if err != nil {
		return FitResult{}, err
	}
	// A re-upload may have bumped the version between our registry read
	// and the cache insert; the model is still correct for this caller,
	// but its key is unreachable by future requests and would pin the
	// replaced dataset in the LRU. Sweep stale versions when detected.
	s.mu.RLock()
	cur, still := s.datasets[dataset]
	s.mu.RUnlock()
	if !still || cur.version != e.version {
		keep := uint64(0)
		if still {
			keep = cur.version
		}
		s.cache.purgeStale(dataset, keep)
	} else if s.store != nil && !hit {
		// A fresh fit on a still-current dataset version: snapshot it so
		// the next process start skips this ClusterDataset pass. Workers
		// is zeroed on disk — thread count is host policy, not identity.
		pk := persist.ModelKey{Dataset: dataset, Version: e.version, Algorithm: algorithm, Params: p}
		if err := s.store.SaveModel(pk, model); err != nil {
			s.persistErrors.Add(1)
			s.store.Log("service: persisting model %s/%s: %v", dataset, algorithm, err)
		}
	}
	return FitResult{Model: model, CacheHit: hit, IndexCut: indexCut && !hit}, nil
}

// cutModel derives a covered algorithm's model from the density index:
// one re-cut plus the kd-tree rebuild core.Restore performs. The re-cut
// Result is byte-identical to what the algorithm would compute.
func (s *Service) cutModel(idx *densindex.Index, algorithm string, ds *geom.Dataset, p core.Params) (*core.Model, error) {
	res, err := idx.Cut(p)
	if err != nil {
		return nil, err
	}
	s.indexCuts.Add(1)
	return core.Restore(algorithm, ds, res, p, res.Timing.Total())
}

// Assign labels a batch of points against the model for (dataset,
// algorithm, params), fitting it first if needed. It returns the labels
// and whether the model came from the cache. With drift enabled the
// model may be a pinned previous-version model while a background refit
// runs (see serveFit), and the batch feeds the lineage's drift tracker.
func (s *Service) Assign(dataset, algorithm string, p core.Params, pts [][]float64) ([]int32, FitResult, error) {
	fr, obs, err := s.serveFit(dataset, algorithm, p)
	if err != nil {
		return nil, FitResult{}, err
	}
	s.assignRequests.Add(1)
	labels, err := s.assignChunk(fr.Model, obs, pts)
	if err != nil {
		return nil, FitResult{}, err
	}
	return labels, fr, nil
}

// assignChunk is the labeling core shared by the batch path (one chunk =
// the whole batch) and the streaming path (one chunk per response
// record): a parallel AssignAll plus the points counter. A non-nil obs
// adds drift observation — an exact halo count off the labels, one
// O(dim) center distance every Config.SampleEvery points for the
// quantile sketch, one tracker lock per chunk — and kicks the
// background refit when this chunk trips the tracker.
func (s *Service) assignChunk(m *core.Model, obs *driftObs, pts [][]float64) ([]int32, error) {
	labels, err := m.AssignAll(pts, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	s.pointsAssigned.Add(int64(len(pts)))
	if obs == nil || obs.tracker == nil {
		return labels, nil
	}
	var halo int64
	for _, l := range labels {
		if l == core.NoCluster {
			halo++
		}
	}
	stride := s.opts.Drift.SampleStride()
	samples := make([]float64, 0, len(pts)/stride+1)
	for i := 0; i < len(pts); i += stride {
		samples = append(samples, m.CenterDist(pts[i], labels[i]))
	}
	if obs.tracker.ObserveSampled(int64(len(pts)), halo, samples) {
		s.driftTrips.Add(1)
		s.kickRefit(obs.st, obs.tracker)
	}
	return labels, nil
}

// Stats returns current counters (shape: api.Stats).
func (s *Service) Stats() api.Stats {
	s.mu.RLock()
	nds := len(s.datasets)
	nf32 := 0
	for _, e := range s.datasets {
		if e.points.Float32() {
			nf32++
		}
	}
	s.mu.RUnlock()
	hits, misses, evictions, cached := s.cache.counters()
	st := api.Stats{
		Datasets:       nds,
		DatasetsF32:    nf32,
		ModelsCached:   cached,
		CacheCapacity:  s.cache.capacity,
		FitRequests:    s.fitRequests.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		Evictions:      evictions,
		AssignRequests: s.assignRequests.Load(),
		PointsAssigned: s.pointsAssigned.Load(),

		IndexBuilds:     s.indexBuilds.Load(),
		IndexCuts:       s.indexCuts.Load(),
		IndexesRestored: int(s.indexesRestored.Load()),

		DatasetsRestored: int(s.datasetsRestored.Load()),
		ModelsRestored:   int(s.modelsRestored.Load()),
		PersistErrors:    s.persistErrors.Load(),

		DatasetsReplicated: s.datasetsReplicated.Load(),
		ModelsReplicated:   s.modelsReplicated.Load(),

		DriftTrips:       s.driftTrips.Load(),
		DriftRefits:      s.driftRefits.Load(),
		DriftStaleServes: s.driftStaleServes.Load(),
		PointsAppended:   s.pointsAppended.Load(),
		PointsExpired:    s.pointsExpired.Load(),
		IndexUpdates:     s.indexUpdates.Load(),
	}
	st.DriftScore, st.DriftModels = s.driftScore()
	if total := hits + misses; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// DecisionGraph computes the decision graph of a dataset at dcut from
// its density index (built on first use), returning the (rho, delta)
// pairs sorted by descending delta — density peaks first, the order an
// analyst reads to pick rho_min and delta_min. limit > 0 truncates the
// point list after sorting; N always reports the full dataset size.
func (s *Service) DecisionGraph(dataset string, dcut float64, limit int) (*api.DecisionGraphResponse, error) {
	idx, _, reused, err := s.ensureIndex(dataset, dcut)
	if err != nil {
		return nil, err
	}
	rho, delta, err := idx.Decision(dcut, s.opts.Workers)
	if err != nil {
		return nil, err
	}
	s.indexCuts.Add(1)
	pts := make([]api.DecisionPoint, len(rho))
	for i := range pts {
		pts[i] = api.DecisionPoint{ID: int32(i), Rho: rho[i], Delta: delta[i]}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].Delta > pts[b].Delta })
	if limit > 0 && len(pts) > limit {
		pts = pts[:limit]
	}
	return &api.DecisionGraphResponse{
		Dataset: dataset, DCut: dcut, N: len(rho),
		IndexReused: reused, Points: pts,
	}, nil
}

// Sweep re-cuts one dataset's density index for every requested
// parameter setting: the index is built (or reused) once, each setting
// then costs an O(n log n)-ish cut instead of a fit, and nothing enters
// the model cache — a K-setting sweep must not evict K models. The
// algorithm (default "Ex-DPC") must be covered by the index; every
// result is byte-identical to fitting that algorithm at the setting.
func (s *Service) Sweep(req api.SweepRequest) (*api.SweepResponse, error) {
	algorithm := req.Algorithm
	if algorithm == "" {
		algorithm = "Ex-DPC"
	}
	if _, ok := core.AlgorithmByName(algorithm); !ok {
		return nil, fmt.Errorf("service: unknown algorithm %q", algorithm)
	}
	if !densindex.Covers(algorithm) {
		return nil, fmt.Errorf("service: algorithm %q is not covered by the density index (covered: %v)",
			algorithm, densindex.CoveredAlgorithms())
	}
	if len(req.Settings) == 0 {
		return nil, fmt.Errorf("service: sweep needs at least one parameter setting")
	}
	maxDC := 0.0
	for i, set := range req.Settings {
		if !(set.DCut > 0) {
			return nil, fmt.Errorf("service: setting %d: dcut must be positive, got %g", i, set.DCut)
		}
		if set.DCut > maxDC {
			maxDC = set.DCut
		}
	}
	// The grid is known in full, so build at exactly its maximum — the
	// interactive-nudge headroom would square the edge count for nothing.
	idx, _, reused, err := s.ensureIndexCeil(req.Dataset, maxDC, maxDC)
	if err != nil {
		return nil, err
	}
	resp := &api.SweepResponse{
		Dataset: req.Dataset, Algorithm: algorithm, N: idx.N(),
		IndexReused: reused, Results: make([]api.SweepResult, len(req.Settings)),
	}
	for i, set := range req.Settings {
		p := s.normalize(algorithm, core.Params{DCut: set.DCut, RhoMin: set.RhoMin, DeltaMin: set.DeltaMin})
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("service: setting %d: %w", i, err)
		}
		res, err := idx.Cut(p)
		if err != nil {
			return nil, fmt.Errorf("service: setting %d: %w", i, err)
		}
		s.indexCuts.Add(1)
		noise := 0
		for _, l := range res.Labels {
			if l == core.NoCluster {
				noise++
			}
		}
		r := api.SweepResult{
			Params:   wireParams(p),
			Clusters: res.NumClusters(),
			Noise:    noise,
			Centers:  append([]int32{}, res.Centers...),
		}
		if req.IncludeLabels {
			r.Labels = res.Labels
		}
		resp.Results[i] = r
	}
	return resp, nil
}

// modelKey identifies one fitted model. core.Params is a flat struct of
// scalars, so the whole key is comparable and works as a map key.
type modelKey struct {
	dataset   string
	version   uint64
	algorithm string
	params    core.Params
}

// modelCache is an LRU of fitted models with single-flight fills: a miss
// inserts an in-flight entry under the lock, then fits outside it, so
// concurrent requests for the same key block on the entry instead of
// fitting again. Failed fits are removed so the next request retries.
type modelCache struct {
	capacity int

	mu      sync.Mutex
	ll      *list.List // front = most recently used; values are *cacheEntry
	entries map[modelKey]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	key   modelKey
	ready chan struct{} // closed once model/err are set
	model *core.Model
	err   error
}

func newModelCache(capacity int) *modelCache {
	return &modelCache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[modelKey]*list.Element),
	}
}

// getOrFit returns the cached model for key, joining an in-flight fit or
// performing the fit itself when absent. hit reports whether the caller
// avoided a fresh fit (cached or joined). countMiss controls whether a
// fresh fill counts as a cache miss: true for real fits, false for
// index re-cuts, which are not fits and must not skew the hit rate the
// misses counter implies.
func (c *modelCache) getOrFit(key modelKey, countMiss bool, fit func() (*core.Model, error)) (model *core.Model, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			// The fit this caller joined failed; surface its error without
			// counting a hit. The owner already removed the entry, so a
			// retry starts fresh.
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.model, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = c.ll.PushFront(e)
	c.evictLocked()
	c.mu.Unlock()
	if countMiss {
		c.misses.Add(1)
	}

	e.model, e.err = fit()
	if e.err != nil {
		c.remove(key, e)
	}
	close(e.ready)
	if e.err == nil {
		// The insert-time sweep skips in-flight entries, so the cache can
		// exceed capacity while fits run; settle it now that this entry is
		// evictable.
		c.mu.Lock()
		c.evictLocked()
		c.mu.Unlock()
	}
	return e.model, false, e.err
}

// peekReady returns the completed model for key without blocking on an
// in-flight fit and without touching the hit/miss counters (callers
// that adopt the peek account for it themselves). A successful peek
// still refreshes LRU recency.
func (c *modelCache) peekReady(key modelKey) (*core.Model, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	select {
	case <-e.ready:
	default:
		return nil, false
	}
	if e.err != nil || e.model == nil {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return e.model, true
}

// put inserts an already-fitted model — a snapshot restore — as a
// completed entry at the front, evicting LRU overflow. It reports whether
// the key was absent. Restores neither count as hits nor misses; the
// counters keep meaning "requests served without / with a fit".
func (c *modelCache) put(key modelKey, m *core.Model) bool {
	ready := make(chan struct{})
	close(ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return false
	}
	c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, ready: ready, model: m})
	c.evictLocked()
	return true
}

// evictLocked drops least-recently-used completed entries until the
// cache fits its capacity. In-flight entries are never evicted (their
// fitters and joiners hold references); if everything is in flight the
// cache temporarily exceeds capacity.
func (c *modelCache) evictLocked() {
	for c.ll.Len() > c.capacity {
		evicted := false
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.ready:
			default:
				continue // still fitting
			}
			c.ll.Remove(el)
			delete(c.entries, e.key)
			c.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// remove deletes key if it still maps to entry e (a purge or eviction
// may have raced ahead).
func (c *modelCache) remove(key modelKey, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry) == e {
		c.ll.Remove(el)
		delete(c.entries, key)
	}
}

// purgeStale drops every entry fitted on the named dataset whose
// version differs from keepVersion (0 keeps nothing). In-flight fits
// complete for their waiters but are no longer reachable through the
// cache.
func (c *modelCache) purgeStale(name string, keepVersion uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.key.dataset == name && e.key.version != keepVersion {
			c.ll.Remove(el)
			delete(c.entries, e.key)
		}
	}
}

func (c *modelCache) counters() (hits, misses, evictions int64, cached int) {
	c.mu.Lock()
	cached = c.ll.Len()
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), cached
}
