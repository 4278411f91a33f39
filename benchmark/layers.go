package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"dlinfma/internal/cluster"
	"dlinfma/internal/core"
	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/geo"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// layers times each layer's public functions from outside, on the inputs
// of the workload just run, inside spans under one "layers" root.
type layers struct {
	r    *run
	ctx  context.Context
	root uint64
	out  map[string]metricVal
}

func (l *layers) metric(name, unit string, v float64) {
	l.out[name] = metricVal{Value: v, Unit: unit}
}

// timed runs fn inside a span and returns its wall time.
func (l *layers) timed(name string, fn func() error) (time.Duration, error) {
	sp := l.r.tr.start(name, l.root)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	l.r.tr.end(sp)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// medianOf runs fn n times inside spans and returns the median wall time.
func (l *layers) medianOf(name string, n int, fn func() error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := l.timed(name, fn)
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// perOp runs fn over n operations in rounds and returns the median time and
// the heap allocations per operation (from the runtime's own counters).
func (l *layers) perOp(name string, n, rounds int, fn func(i int)) (ns, allocs float64) {
	fn(0) // warm caches and lazy set-up
	var ms0, ms1 runtime.MemStats
	per := make([]float64, 0, rounds)
	for k := 0; k < rounds; k++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		d, _ := l.timed(name, func() error {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return nil
		})
		runtime.ReadMemStats(&ms1)
		per = append(per, float64(d.Nanoseconds())/float64(n))
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}
	return median(per), allocs
}

// timeLayers produces every per-layer metric of BENCHMARK.json.
func timeLayers(ctx context.Context, r *run) (map[string]metricVal, error) {
	sp := r.tr.start("layers", 0)
	defer r.tr.end(sp)
	l := &layers{r: r, ctx: ctx, root: sp.id, out: make(map[string]metricVal)}
	cfg := engineConfig()
	city := r.city
	trips := append(append([]model.Trip(nil), city.Trips...), r.ingestTrips...)
	all := &model.Dataset{Name: city.Name, Trips: trips, Addresses: city.Addresses, Truth: city.Truth}
	wins := windows(trips, cfg.Core.PoolWindowSeconds)
	keys := newWeightedKeys(r.facts.waybills, r.seed*1000+7).draw(1 << 16)

	// model: reading the city file.
	d, err := l.medianOf("model.LoadFile", 3, func() error {
		_, err := model.LoadFile(filepath.Join(r.dir, cityFile))
		return err
	})
	if err != nil {
		return nil, err
	}
	l.metric("model.load_ms", "ms", msOf(d))

	// engine: restore, then the read path of the restored engine.
	snap := filepath.Join(r.dir, "layers-snap.json")
	if err := r.svc.eng.SaveSnapshotFile(snap); err != nil {
		return nil, err
	}
	var re *engine.Engine
	d, err = l.medianOf("engine.LoadSnapshotFile", 5, func() error {
		if re != nil {
			re.Close()
		}
		re = engine.New(cfg)
		return re.LoadSnapshotFile(snap)
	})
	if err != nil {
		return nil, err
	}
	defer re.Close()
	l.metric("engine.restore_ms", "ms", msOf(d))
	addrKeys := make([]model.AddressID, len(keys))
	for i, k := range keys {
		addrKeys[i] = model.AddressID(k)
	}
	var sink geo.Point
	ns, allocs := l.perOp("engine.Query", 1<<20, 3, func(i int) {
		p, _ := re.Query(addrKeys[i%len(addrKeys)])
		sink = sink.Add(p)
	})
	l.metric("engine.query_ns", "ns", ns)
	l.metric("engine.query_allocs", "count", allocs)
	out := make([]deploy.BatchAnswer, 0, batchKeys)
	nb := len(addrKeys) / batchKeys
	ns, _ = l.perOp("engine.QueryBatch", 4096, 3, func(i int) {
		lo := (i % nb) * batchKeys
		out, _ = re.QueryBatch(ctx, addrKeys[lo:lo+batchKeys], out[:0])
	})
	l.metric("engine.query_batch_ns_per_key", "ns", ns/batchKeys)
	_ = sink

	// engine and core: ingest, pool, features, training.
	if err := l.ingestAndReinfer(cfg, all, wins); err != nil {
		return nil, err
	}
	if err := l.pipeline(cfg, all, wins); err != nil {
		return nil, err
	}
	// engine, traj and wal: the streaming path.
	if err := l.streaming(cfg); err != nil {
		return nil, err
	}
	// deploy: handlers without a socket, then the store's freeze and diff.
	if err := l.handlers(cfg, re, keys, all, wins); err != nil {
		return nil, err
	}
	if err := l.stores(); err != nil {
		return nil, err
	}
	return l.out, nil
}

// ingestAndReinfer times Engine.Ingest per bi-weekly window and one
// Engine.Reinfer over everything ingested.
func (l *layers) ingestAndReinfer(cfg engine.Config, all *model.Dataset, wins [][]model.Trip) error {
	e := engine.New(cfg)
	defer e.Close()
	if err := e.Ingest(l.ctx, nil, all.Addresses, all.Truth); err != nil {
		return err
	}
	per := make([]float64, 0, len(wins))
	for _, win := range wins {
		d, err := l.timed("engine.Ingest", func() error { return e.Ingest(l.ctx, win, nil, nil) })
		if err != nil {
			return err
		}
		per = append(per, msOf(d))
	}
	l.metric("engine.ingest_window_ms", "ms", median(per))
	d, err := l.timed("engine.Reinfer", func() error { return e.Reinfer(l.ctx) })
	if err != nil {
		return err
	}
	l.metric("engine.reinfer_s", "s", d.Seconds())
	return nil
}

// pipeline times the re-inference's stages one by one: pool building,
// one window's clustering, featurization, training and prediction.
func (l *layers) pipeline(cfg engine.Config, all *model.Dataset, wins [][]model.Trip) error {
	ctx := l.ctx
	var pool *core.Pool
	d, err := l.timed("core.PoolBuild", func() error {
		b := core.NewIncrementalPoolBuilder(cfg.Core)
		for _, win := range wins {
			if err := b.AddWindow(ctx, win); err != nil {
				return err
			}
		}
		pool = b.FinalizeCtx(ctx)
		return nil
	})
	if err != nil {
		return err
	}
	l.metric("core.pool_ms", "ms", msOf(d))
	l.metric("core.pool_locations", "count", float64(len(pool.Locations)))

	// The window seal clusters one window's stay points with cluster.Hierarchical.
	stays, err := core.ExtractAllStayPoints(ctx, &model.Dataset{Trips: wins[0]}, cfg.Core)
	if err != nil {
		return err
	}
	var pts []geo.Point
	for _, sps := range stays {
		for _, sp := range sps {
			pts = append(pts, sp.Loc)
		}
	}
	d, err = l.medianOf("cluster.Hierarchical", 5, func() error {
		cluster.Hierarchical(pts, cfg.Core.ClusterDistance)
		return nil
	})
	if err != nil {
		return err
	}
	l.metric("cluster.hierarchical_ms", "ms", msOf(d))

	pipe := core.NewPipelineWithPool(all, cfg.Core, pool)
	ids := make([]model.AddressID, len(all.Addresses))
	for i, a := range all.Addresses {
		ids[i] = a.ID
	}
	var samples []*core.Sample
	d, err = l.timed("core.BuildSamples", func() error {
		var err error
		samples, err = pipe.BuildSamplesCtx(ctx, ids, cfg.Sample)
		return err
	})
	if err != nil {
		return err
	}
	cands := 0
	for _, s := range samples {
		cands += len(s.Cands)
	}
	l.metric("core.features_ms", "ms", msOf(d))
	l.metric("core.candidates", "count", float64(cands))

	// Training exactly as the engine's re-inference sets it up.
	core.LabelSamples(samples, all.Truth)
	var labelled []*core.Sample
	for _, s := range samples {
		if s.Label >= 0 {
			labelled = append(labelled, s)
		}
	}
	nVal := int(float64(len(labelled)) * cfg.ValFraction)
	mcfg := cfg.Matcher
	if mcfg.Workers == 0 {
		mcfg.Workers = cfg.Core.Workers
	}
	m := core.NewLocMatcher(mcfg)
	var res core.TrainResult
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	d, err = l.timed("nn.Fit", func() error {
		var err error
		res, err = m.Fit(ctx, labelled[nVal:], labelled[:nVal])
		return err
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	epochs := max(res.Epochs, 1)
	l.metric("nn.fit_s", "s", d.Seconds())
	l.metric("nn.epochs", "count", float64(res.Epochs))
	l.metric("nn.fit_ms_per_epoch", "ms", msOf(d)/float64(epochs))
	l.metric("nn.fit_alloc_mb_per_epoch", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6/float64(epochs))
	d, err = l.timed("nn.ProbabilitiesAll", func() error {
		_, err := m.ProbabilitiesAll(ctx, samples)
		return err
	})
	if err != nil {
		return err
	}
	l.metric("nn.predict_ms", "ms", msOf(d))
	return nil
}

// walFsyncs reads the WAL's fsync counter from the program's metric
// registry; only the count is taken from the program.
func walFsyncs() (float64, error) {
	var b bytes.Buffer
	if err := obs.Default.WritePrometheus(&b); err != nil {
		return 0, err
	}
	fams, err := obs.ParseExposition(&b)
	if err != nil {
		return 0, err
	}
	f := fams["dlinfma_wal_fsyncs_total"]
	if f == nil || len(f.Samples) == 0 {
		return 0, fmt.Errorf("no dlinfma_wal_fsyncs_total in the registry")
	}
	return f.Samples[0].Value, nil
}

// streaming times the stream extractor per fix, the engine's stream path
// with a WAL attached, and WAL appends of the records that path wrote.
func (l *layers) streaming(cfg engine.Config) error {
	trips := l.r.streamTrips
	fixes := 0
	for _, tr := range trips {
		fixes += len(tr.Traj)
	}
	accepted, stays := 0, 0
	d, err := l.medianOf("traj.StreamExtractor", 3, func() error {
		accepted, stays = 0, 0
		for _, tr := range trips {
			x := traj.NewStreamExtractor(cfg.Core.Noise, cfg.Core.Stay)
			for _, p := range tr.Traj {
				stays += len(x.Push(p))
			}
			accepted += x.Accepted()
			stays += len(x.Flush())
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.metric("traj.push_ns_per_fix", "ns", float64(d.Nanoseconds())/float64(fixes))
	l.metric("traj.fixes_accepted", "count", float64(accepted))
	l.metric("traj.stays", "count", float64(stays))

	dir := filepath.Join(l.r.dir, "layers-wal")
	w, err := wal.Open(dir, wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		return err
	}
	e := engine.New(cfg)
	defer e.Close()
	e.AttachWAL(w)
	d, err = l.timed("engine.IngestPoint", func() error {
		for _, tr := range trips {
			for _, p := range tr.Traj {
				if err := e.IngestPoint(l.ctx, tr.Courier, p); err != nil {
					return err
				}
			}
			if err := e.CloseStream(l.ctx, tr.Courier); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		w.Close()
		return err
	}
	l.metric("engine.ingest_point_ns", "ns", float64(d.Nanoseconds())/float64(fixes))
	if err := w.Close(); err != nil {
		return err
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	l.metric("wal.bytes_per_fix", "B", float64(size)/float64(fixes))

	// Re-append the records the engine wrote, to time WAL.Append alone.
	var payloads [][]byte
	rw, err := wal.Open(dir, wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		return err
	}
	err = rw.Replay(func(_ uint64, p []byte) error {
		payloads = append(payloads, bytes.Clone(p))
		return nil
	})
	rw.Close()
	if err != nil {
		return err
	}
	aw, err := wal.Open(dir+"-append", wal.Options{Policy: wal.FsyncInterval})
	if err != nil {
		return err
	}
	f0, err := walFsyncs()
	if err != nil {
		aw.Close()
		return err
	}
	d, err = l.timed("wal.Append", func() error {
		for _, p := range payloads {
			if _, err := aw.Append(p); err != nil {
				return err
			}
		}
		return nil
	})
	f1, ferr := walFsyncs()
	if cerr := aw.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	l.metric("wal.append_ns", "ns", float64(d.Nanoseconds())/float64(len(payloads)))
	l.metric("wal.fsyncs_per_kfix", "count", (f1-f0)*1000/float64(fixes))
	return nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// sinkWriter is a reusable in-memory http.ResponseWriter, so handler
// timings carry no recorder allocations.
type sinkWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (s *sinkWriter) Header() http.Header         { return s.h }
func (s *sinkWriter) WriteHeader(code int)        { s.code = code }
func (s *sinkWriter) Write(b []byte) (int, error) { return s.buf.Write(b) }
func (s *sinkWriter) reset() {
	clear(s.h)
	s.code = http.StatusOK
	s.buf.Reset()
}

func newSink() *sinkWriter { return &sinkWriter{h: make(http.Header)} }

// serve calls h.ServeHTTP once and checks the status.
func serve(h http.Handler, w *sinkWriter, req *http.Request, want int) error {
	w.reset()
	h.ServeHTTP(w, req)
	if w.code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", req.Method, req.URL.Path, w.code, want, truncate(w.buf.Bytes(), 200))
	}
	return nil
}

func postRequest(path string, body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	return req
}

// handlers times NewService(...).ServeHTTP into an in-memory writer for the
// lookup, batch, ingest and stream routes, and the lookup route with and
// without the default request tracer.
func (l *layers) handlers(cfg engine.Config, re *engine.Engine, keys []int64, all *model.Dataset, wins [][]model.Trip) error {
	plain := deploy.NewService(re, deploy.Options{Logger: serveLogger()})
	traced := deploy.NewService(re, deploy.Options{Logger: serveLogger(), Tracer: serveTracer()})
	reqs := make(map[int64]*http.Request, len(l.r.ids))
	for _, id := range l.r.ids {
		reqs[id], _ = http.NewRequest(http.MethodGet, "/v1/locations/"+strconv.FormatInt(id, 10), nil)
	}
	w := newSink()
	var herr error
	lookup := func(h http.Handler) func(i int) {
		return func(i int) {
			if err := serve(h, w, reqs[keys[i%len(keys)]], http.StatusOK); err != nil && herr == nil {
				herr = err
			}
		}
	}
	ns, allocs := l.perOp("deploy.lookup", 20000, 3, lookup(plain))
	l.metric("deploy.lookup_handler_ns", "ns", ns)
	l.metric("deploy.lookup_handler_allocs", "count", allocs)
	// Tracing overhead: alternate traced and untraced rounds so drift in
	// the machine's speed hits both sides alike.
	var withT, without []float64
	for k := 0; k < 5; k++ {
		a, _ := l.perOp("deploy.lookup.untraced", 20000, 1, lookup(plain))
		b, _ := l.perOp("deploy.lookup.traced", 20000, 1, lookup(traced))
		without, withT = append(without, a), append(withT, b)
	}
	l.metric("obs.trace_overhead_ns", "ns", median(withT)-median(without))

	const nBodies = 16
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		lo := (i * batchKeys) % (len(keys) - batchKeys)
		bodies[i], _ = json.Marshal(api.BatchLocationsRequest{Addrs: keys[lo : lo+batchKeys]})
	}
	ns, _ = l.perOp("deploy.batch", 400, 3, func(i int) {
		if err := serve(plain, w, postRequest("/v1/locations:batch", bodies[i%nBodies]), http.StatusOK); err != nil && herr == nil {
			herr = err
		}
	})
	l.metric("deploy.batch_handler_ns_per_key", "ns", ns/batchKeys)
	if herr != nil {
		return herr
	}

	// Ingest and stream go to fresh engines, as the workloads' writes do.
	ie := engine.New(cfg)
	defer ie.Close()
	isvc := deploy.NewService(ie, deploy.Options{Logger: serveLogger()})
	truth := make(map[string][2]float64, len(all.Truth))
	for id, p := range all.Truth {
		truth[strconv.Itoa(int(id))] = [2]float64{p.X, p.Y}
	}
	first, _ := json.Marshal(api.IngestRequest{Addresses: all.Addresses, Truth: truth})
	if err := serve(isvc, w, postRequest("/v1/ingest", first), http.StatusOK); err != nil {
		return err
	}
	per := make([]float64, 0, len(wins))
	for _, win := range wins {
		body, _ := json.Marshal(api.IngestRequest{Trips: win})
		d, err := l.timed("deploy.ingest", func() error {
			return serve(isvc, w, postRequest("/v1/ingest", body), http.StatusOK)
		})
		if err != nil {
			return err
		}
		per = append(per, msOf(d))
	}
	l.metric("deploy.ingest_handler_ms_per_window", "ms", median(per))

	se := engine.New(cfg)
	defer se.Close()
	ssvc := deploy.NewService(se, deploy.Options{Logger: serveLogger()})
	var total time.Duration
	fixes := 0
	for _, tr := range l.r.streamTrips {
		body := sessionBody(tr)
		d, err := l.timed("deploy.stream", func() error {
			return serve(ssvc, w, postRequest("/v1/trajectories:stream", body), http.StatusOK)
		})
		if err != nil {
			return err
		}
		total += d
		fixes += len(tr.Traj)
	}
	l.metric("deploy.stream_handler_ns_per_fix", "ns", float64(total.Nanoseconds())/float64(fixes))
	return nil
}

// storeOf rebuilds a serving store from served answers: the city's
// addresses with their buildings and geocodes, and every address-level
// answer as an inferred location.
func (l *layers) storeOf(answers map[int64]api.Location) *deploy.Store {
	s := deploy.NewStore()
	s.LoadDataset(l.r.city)
	for id, loc := range answers {
		if loc.Source == "address" {
			s.Put(model.AddressID(id), geo.Point{X: loc.X, Y: loc.Y})
		}
	}
	return s
}

// stores times Store.Freeze of the store served after the re-inference and
// DiffFrozen of the stores served before and after it.
func (l *layers) stores() error {
	after := l.storeOf(l.r.post)
	var newF *deploy.FrozenStore
	d, err := l.medianOf("deploy.Freeze", 5, func() error {
		newF = after.Freeze()
		return nil
	})
	if err != nil {
		return err
	}
	l.metric("deploy.freeze_ms", "ms", msOf(d))
	oldF := l.storeOf(l.r.pre).Freeze()
	d, err = l.medianOf("deploy.DiffFrozen", 5, func() error {
		deploy.DiffFrozen(oldF, newF, 0.5, nil)
		return nil
	})
	if err != nil {
		return err
	}
	l.metric("deploy.diff_ms", "ms", msOf(d))
	return nil
}
