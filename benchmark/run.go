package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dlinfma/internal/deploy"
	"dlinfma/internal/deploy/api"
	"dlinfma/internal/engine"
	"dlinfma/internal/model"
	"dlinfma/internal/obs"
	"dlinfma/internal/obs/trace"
	"dlinfma/internal/traj"
	"dlinfma/internal/wal"
)

// metricVal is one printed metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark run of one workload: the generated inputs, the
// serving stack of the last set-up, and what the phases measured.
type run struct {
	w       workload
	seed    int64
	seconds float64
	dir     string
	tr      *tracer
	root    uint64
	cfg     engine.Config

	city        *model.Dataset
	ingestTrips []model.Trip
	streamTrips []model.Trip
	lateTrips   []model.Trip
	// uploaded counts the trips the ingest phases uploaded and uploadBusy
	// the busy time their requests took; streamed, streamBusy and
	// sessionLat are the stream laps' fixes, busy time and session
	// latencies.
	uploaded   int
	uploadBusy time.Duration
	streamed   int
	streamBusy time.Duration
	sessionLat []time.Duration
	facts      cityFacts
	ids        []int64

	svc      *stack
	c        *client
	setupDur []float64
	setupRaw [][2]float64

	// pre holds the answers served before the re-inference (nil when the
	// service had none), post those served after it; reads holds the
	// answers of the state the lookup phases ran on.
	pre, post, reads map[int64]api.Location

	metrics  map[string]metricVal
	ref      map[string]any
	failures []string
}

// fail records a failed output check; any failure makes the run incorrect.
func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *run) metric(name, unit string, v float64) {
	r.metrics[name] = metricVal{Value: v, Unit: unit}
}

// serveTracer is `dlinfma serve`'s default request tracer: 10% head
// sampling, slow requests kept, a 256-trace ring.
func serveTracer() *trace.Tracer {
	return trace.NewTracer(trace.Options{SampleProb: 0.1, SlowThreshold: time.Second, Store: trace.NewStore(256)})
}

// serveLogger is `dlinfma serve`'s default logger (info, logfmt) writing
// nowhere, so lifecycle logging costs what it costs in a server.
func serveLogger() *obs.Logger { return obs.NewLogger(io.Discard, obs.LevelInfo, obs.FormatLogfmt) }

// stack is one booted serving stack: the engine, its WAL where the
// workload uses one, and the HTTP server on its own loopback listener.
type stack struct {
	eng     *engine.Engine
	walLog  *wal.WAL
	walDir  string
	srv     *http.Server
	srvDone chan struct{}
	base    string
}

// close stops the stack and waits for its server.
func (st *stack) close() {
	if st.srv != nil {
		st.srv.Close()
		<-st.srvDone
	}
	if st.eng != nil {
		st.eng.Close()
	}
	if st.walLog != nil {
		st.walLog.Close()
		os.RemoveAll(st.walDir)
	}
}

// setUp boots the service once, as set-up number i, and returns the stack
// and the city it loaded. The timing runs from reading the input file
// until the service answered the workload's first request, sent through c.
func (r *run) setUp(ctx context.Context, i int, c *client) (st *stack, ds *model.Dataset, wall, steal time.Duration, err error) {
	runtime.GC()
	sp := r.tr.start("setup", r.root)
	defer r.tr.end(sp)
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	start := startClock()
	ds, err = model.LoadFile(filepath.Join(r.dir, cityFile))
	if err != nil {
		return st, nil, 0, 0, err
	}
	cfg := r.cfg
	tracer := serveTracer()
	log := serveLogger()
	cfg.Tracer = tracer
	cfg.Logger = log.With("component", "engine")
	e := engine.New(cfg)
	st.eng = e
	switch r.w.boot {
	case bootRestore:
		if err = e.LoadSnapshotFile(filepath.Join(r.dir, snapFile)); err != nil {
			return st, nil, 0, 0, err
		}
		if err = e.IngestDataset(ctx, ds); err != nil {
			return st, nil, 0, 0, err
		}
	case bootCold:
		st.walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
		if st.walLog, err = wal.Open(st.walDir, wal.Options{Policy: wal.FsyncInterval}); err != nil {
			return st, nil, 0, 0, err
		}
		if _, err = e.ReplayWAL(ctx, st.walLog); err != nil {
			return st, nil, 0, 0, err
		}
		e.AttachWAL(st.walLog)
		if err = e.IngestDataset(ctx, ds); err != nil {
			return st, nil, 0, 0, err
		}
		if err = e.Reinfer(ctx); err != nil {
			return st, nil, 0, 0, err
		}
	}
	// deploy.Serve listens on a fixed address; the benchmark needs port 0,
	// so it serves the same *http.Server on its own listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, nil, 0, 0, err
	}
	st.srv = deploy.NewServer(ln.Addr().String(), deploy.NewService(e, deploy.Options{
		Logger: log.With("component", "http"),
		Tracer: tracer,
	}))
	st.srvDone = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		_ = srv.Serve(ln) // returns http.ErrServerClosed at tear-down
		close(done)
	}(st.srv, st.srvDone)
	st.base = "http://" + ln.Addr().String()
	c.base = st.base
	var buf bytes.Buffer
	if err = c.send(opFirst, sp.id, http.MethodGet, "/v1/locations/"+strconv.FormatInt(r.ids[0], 10), nil, http.StatusOK, &buf); err != nil {
		return st, nil, 0, 0, err
	}
	wall, steal = start.elapsed()
	return st, ds, wall, steal, nil
}

// recordSetUp adds one set-up's busy time to setup_s's samples.
func (r *run) recordSetUp(wall, steal time.Duration) {
	r.setupDur = append(r.setupDur, busyOf(wall, steal).Seconds())
	r.setupRaw = append(r.setupRaw, [2]float64{wall.Seconds(), steal.Seconds()})
}

// probeSetUps boots n throwaway stacks beside the serving one, each timed
// like the serving set-up and torn down at once, with a client of its own.
// The run calls it between phases, so setup_s's samples come from the
// whole length of the run: how fast the shared machine is drifts over
// tens of seconds, and set-ups taken back to back all saw the same speed.
func (r *run) probeSetUps(ctx context.Context, n int) error {
	for k := 0; k < n; k++ {
		c := newClient(r.tr)
		st, _, wall, steal, err := r.setUp(ctx, len(r.setupDur), c)
		c.close()
		r.c.add(c)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", len(r.setupDur), err)
		}
		st.close()
		r.recordSetUp(wall, steal)
	}
	return nil
}

// tearDown stops the serving stack and waits for it.
func (r *run) tearDown() {
	if r.svc != nil {
		r.svc.close()
		r.svc = nil
	}
	r.c.close()
}

// execute runs the workload's phases in order and fills r.metrics.
func (r *run) execute(ctx context.Context) error {
	rootSp := r.tr.start("run", 0)
	r.root = rootSp.id
	defer r.tr.end(rootSp)

	svc, city, wall, steal, err := r.setUp(ctx, 0, r.c)
	if err != nil {
		return fmt.Errorf("set-up 0: %w", err)
	}
	r.svc, r.city = svc, city
	r.recordSetUp(wall, steal)

	more, err := model.LoadFile(filepath.Join(r.dir, moreFile))
	if err != nil {
		return err
	}
	r.ingestTrips, r.streamTrips, r.lateTrips = splitMore(more)

	// A restored service is read before any write changes what it serves;
	// a cold-booted one after its re-inference.
	readsFirst := r.w.boot == bootRestore
	r.pre = r.readback("before-writes")
	if readsFirst {
		r.reads = r.pre
		r.lookupPhases()
	}
	if err := r.probeSetUps(ctx, r.w.probes); err != nil {
		return err
	}
	h0 := r.health()
	if err := r.ingestPhase("phase.ingest", r.ingestTrips); err != nil {
		return err
	}
	h1 := r.health()
	if want := h0.Trips + len(r.ingestTrips); h1.Trips != want {
		r.fail("healthz trips after ingest = %d, want %d", h1.Trips, want)
	}
	if err := r.streamLap(0); err != nil {
		return err
	}
	if err := r.probeSetUps(ctx, r.w.probes); err != nil {
		return err
	}
	h2 := r.health()
	if want := h1.Trips + len(r.streamTrips); h2.Trips != want {
		r.fail("healthz trips after %d stream sessions = %d, want %d", len(r.streamTrips), h2.Trips, want)
	}
	if h2.OpenStreams != 0 {
		r.fail("healthz open_streams = %d after every session ended", h2.OpenStreams)
	}
	if err := r.reinferPhase(); err != nil {
		return err
	}
	h3 := r.health()
	if h3.Reinfers != h2.Reinfers+reinfers || h3.PendingTrips != 0 {
		r.fail("healthz after the re-inferences: reinfers %d (want %d), pending_trips %d (want 0)", h3.Reinfers, h2.Reinfers+reinfers, h3.PendingTrips)
	}
	r.post = r.readback("after-reinfer")
	r.accuracy()
	if !readsFirst {
		r.reads = r.post
		r.lookupPhases()
	}
	if err := r.probeSetUps(ctx, r.w.probes); err != nil {
		return err
	}
	if err := r.ingestPhase("phase.late_ingest", r.lateTrips); err != nil {
		return err
	}
	h4 := r.health()
	if h4.Trips != h3.Trips+len(r.lateTrips) || h4.PendingTrips != len(r.lateTrips) {
		r.fail("healthz after the late upload: trips %d (want %d), pending_trips %d (want %d)", h4.Trips, h3.Trips+len(r.lateTrips), h4.PendingTrips, len(r.lateTrips))
	}
	for lap := 1; lap <= lateLaps; lap++ {
		if err := r.streamLap(lap); err != nil {
			return err
		}
		shift := float64(lap*totalDays) * 86400
		late := make([]model.Trip, len(r.lateTrips))
		for i, tr := range r.lateTrips {
			late[i] = shifted(tr, shift)
		}
		if err := r.ingestPhase(fmt.Sprintf("phase.late_ingest%d", lap), late); err != nil {
			return err
		}
	}
	n := lateLaps * (len(r.streamTrips) + len(r.lateTrips))
	if h5 := r.health(); h5.Trips != h4.Trips+n || h5.PendingTrips != h4.PendingTrips+n || h5.OpenStreams != 0 {
		r.fail("healthz after the late laps: trips %d (want %d), pending_trips %d (want %d), open_streams %d", h5.Trips, h4.Trips+n, h5.PendingTrips, h4.PendingTrips+n, h5.OpenStreams)
	}
	if err := r.probeSetUps(ctx, r.w.probes); err != nil {
		return err
	}
	r.metric("setup_s", "s", median(r.setupDur))
	r.ref["setup_s_all"] = r.setupDur
	r.ref["setup_wall_steal_s"] = r.setupRaw
	r.metric("ingest_trips_per_s", "1/s", float64(r.uploaded)/r.uploadBusy.Seconds())
	s := summarize(r.sessionLat, time.Millisecond, "ms")
	r.metric("stream_fixes_per_s", "1/s", float64(r.streamed)/r.streamBusy.Seconds())
	r.metric("stream_session_p50_ms", "ms", s.P50)
	r.ref["stream_session_latency"] = s
	r.ref["stream_fixes"] = r.streamed
	r.metric("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// health reads /v1/healthz of the serving (200) engine.
func (r *run) health() api.EngineStatus {
	var st api.EngineStatus
	if err := r.c.callJSON(opHealthz, r.root, http.MethodGet, "/v1/healthz", nil, http.StatusOK, &st); err != nil {
		r.fail("healthz: %v", err)
	}
	return st
}

// readback resolves every address through batch POSTs and checks that each
// is found and that the address-level answers number exactly the served
// store's inferred count.
func (r *run) readback(label string) map[int64]api.Location {
	sp := r.tr.start("readback", r.root)
	defer r.tr.end(sp)
	out := make(map[int64]api.Location, len(r.ids))
	for lo := 0; lo < len(r.ids); lo += batchKeys {
		chunk := r.ids[lo:min(lo+batchKeys, len(r.ids))]
		body, _ := json.Marshal(api.BatchLocationsRequest{Addrs: chunk})
		var resp api.BatchLocationsResponse
		if err := r.c.callJSON(opReadback, sp.id, http.MethodPost, "/v1/locations:batch", body, http.StatusOK, &resp); err != nil {
			r.fail("readback %s: %v", label, err)
			return out
		}
		if resp.Found != len(chunk) || len(resp.Results) != len(chunk) {
			r.fail("readback %s: %d of %d keys found", label, resp.Found, len(chunk))
		}
		for i, res := range resp.Results {
			if res.Addr != chunk[i] || res.Location == nil {
				r.fail("readback %s: result %d answers %d without a location", label, i, res.Addr)
				continue
			}
			out[res.Addr] = *res.Location
		}
	}
	st := r.health()
	n := 0
	for _, loc := range out {
		if loc.Source == "address" {
			n++
		}
	}
	if n != st.Inferred {
		r.fail("readback %s: %d address-level answers, healthz inferred = %d", label, n, st.Inferred)
	}
	return out
}

// lookupPhases runs the closed-loop GET phase and then the batch phase.
func (r *run) lookupPhases() {
	r.getPhase(time.Duration(r.w.getShare * r.seconds * float64(time.Second)))
	r.batchPhase(time.Duration(r.w.batchShare * r.seconds * float64(time.Second)))
}

// firstAnswers remembers each request's first response body and counts
// later responses that differ from it. The served state does not change
// during a read phase, so every repeat must be byte-identical.
type firstAnswers[K comparable] struct {
	first    map[K][]byte
	mismatch int
}

func (f *firstAnswers[K]) see(k K, body []byte) {
	if prev, ok := f.first[k]; !ok {
		f.first[k] = bytes.Clone(body)
	} else if !bytes.Equal(prev, body) {
		f.mismatch++
	}
}

// closedLoop sends requests one after another over the client's one
// connection for d, each as soon as the previous one is answered;
// send(parent, i, buf) sends the i-th request under the phase span parent.
// It returns the phase's throughput, requests completed per second of busy
// time (see clock.go), and every successful request's latency.
func (r *run) closedLoop(name string, d time.Duration, send func(parent uint64, i int, buf *bytes.Buffer) error) (rate float64, lat []time.Duration) {
	var firstErr error
	fails := 0
	var buf bytes.Buffer
	runtime.GC()
	sp := r.tr.start(name, r.root)
	c := startClock()
	for i := 0; ; i++ {
		t0 := time.Now()
		if t0.Sub(c.wall) >= d {
			break
		}
		if err := send(sp.id, i, &buf); err != nil {
			fails++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		lat = append(lat, time.Since(t0))
	}
	wall, steal := c.elapsed()
	r.tr.end(sp)
	if firstErr != nil {
		r.fail("%s: %d requests failed, first: %v", name, fails, firstErr)
	}
	r.ref[name+"_wall_steal_s"] = []float64{wall.Seconds(), steal.Seconds()}
	return float64(len(lat)) / busyOf(wall, steal).Seconds(), lat
}

// getPhase sends single-key GETs for d, keys drawn in proportion to the
// city file's waybills. Every answer for a
// key must be byte-identical to the first, and the first must equal the
// batch readback of the same state.
func (r *run) getPhase(d time.Duration) {
	urls := make(map[int64]string, len(r.ids))
	for _, id := range r.ids {
		urls[id] = "/v1/locations/" + strconv.FormatInt(id, 10)
	}
	z := newWeightedKeys(r.facts.waybills, r.seed*1000)
	r.ref["lookup_key_addresses"] = len(z.keys)
	keys := z.draw(1 << 16)
	seen := firstAnswers[int64]{first: make(map[int64][]byte)}
	rate, lat := r.closedLoop("phase.get", d, func(parent uint64, i int, buf *bytes.Buffer) error {
		k := keys[i%len(keys)]
		if err := r.c.send(opGet, parent, http.MethodGet, urls[k], nil, http.StatusOK, buf); err != nil {
			return err
		}
		seen.see(k, buf.Bytes())
		return nil
	})
	if seen.mismatch > 0 {
		r.fail("get: %d answers differ from an earlier answer for the same key", seen.mismatch)
	}
	for k, b := range seen.first {
		var loc api.Location
		if err := json.Unmarshal(b, &loc); err != nil {
			r.fail("get %d: decode: %v", k, err)
			continue
		}
		if want, ok := r.reads[k]; !ok || loc != want {
			r.fail("get %d answered %+v, batch answered %+v", k, loc, want)
		}
	}
	s := summarize(lat, time.Microsecond, "us")
	r.metric("lookup_rps", "1/s", rate)
	r.metric("lookup_p50_us", "us", s.P50)
	r.ref["lookup_latency"] = s
}

// batchPhase sends POST /v1/locations:batch requests of batchKeys
// waybill-weighted keys for d. Every response to a body must be byte-identical to the first, and
// the first must agree with the readback.
func (r *run) batchPhase(d time.Duration) {
	const nBodies = 64
	z := newWeightedKeys(r.facts.waybills, r.seed*1000+999)
	keys := make([][]int64, nBodies)
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		keys[i] = z.draw(batchKeys)
		bodies[i], _ = json.Marshal(api.BatchLocationsRequest{Addrs: keys[i]})
	}
	seen := firstAnswers[int]{first: make(map[int][]byte)}
	rate, lat := r.closedLoop("phase.batch", d, func(parent uint64, i int, buf *bytes.Buffer) error {
		bi := i % nBodies
		if err := r.c.send(opBatch, parent, http.MethodPost, "/v1/locations:batch", bodies[bi], http.StatusOK, buf); err != nil {
			return err
		}
		seen.see(bi, buf.Bytes())
		return nil
	})
	if seen.mismatch > 0 {
		r.fail("batch: %d responses differ from an earlier response to the same body", seen.mismatch)
	}
	for bi, b := range seen.first {
		var resp api.BatchLocationsResponse
		if err := json.Unmarshal(b, &resp); err != nil {
			r.fail("batch body %d: decode: %v", bi, err)
			continue
		}
		if resp.Found != batchKeys || len(resp.Results) != batchKeys {
			r.fail("batch body %d: %d of %d keys found", bi, resp.Found, batchKeys)
			continue
		}
		for i, res := range resp.Results {
			want, known := r.reads[keys[bi][i]]
			if res.Location == nil || !known || *res.Location != want {
				r.fail("batch body %d key %d: answer differs from the readback", bi, keys[bi][i])
				break
			}
		}
	}
	r.metric("batch_keys_per_s", "1/s", rate*batchKeys)
	r.ref["batch_latency"] = summarize(lat, time.Microsecond, "us")
}

// windows splits trips (ordered by start) into consecutive windows of
// length seconds anchored at the first trip's start.
func windows(trips []model.Trip, length float64) [][]model.Trip {
	var out [][]model.Trip
	var end float64
	for i, tr := range trips {
		if i == 0 || tr.StartT >= end {
			if i == 0 {
				end = tr.StartT + length
			}
			for tr.StartT >= end {
				end += length
			}
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], tr)
	}
	return out
}

// ingestPhase uploads trips over one connection, one POST /v1/ingest per
// bi-weekly window anchored at the first trip's start, as the engine's own
// batch path windows a dataset. The bodies are encoded before the clock
// starts; ingest_trips_per_s is every upload's trips over the busy time of
// the upload loops.
func (r *run) ingestPhase(name string, trips []model.Trip) error {
	wins := windows(trips, 14*86400)
	bodies := make([][]byte, len(wins))
	for i, win := range wins {
		bodies[i], _ = json.Marshal(api.IngestRequest{Trips: win})
	}
	runtime.GC()
	sp := r.tr.start(name, r.root)
	defer r.tr.end(sp)
	var buf bytes.Buffer
	c := startClock()
	for i, b := range bodies {
		if err := r.c.send(opIngest, sp.id, http.MethodPost, "/v1/ingest", b, http.StatusOK, &buf); err != nil {
			return fmt.Errorf("%s window %d: %w", name, i, err)
		}
	}
	wall, steal := c.elapsed()
	r.uploaded += len(trips)
	r.uploadBusy += busyOf(wall, steal)
	r.ref[name+"_windows"] = len(wins)
	r.ref[name+"_wall_steal_s"] = []float64{wall.Seconds(), steal.Seconds()}
	return nil
}

// lateLaps is how many times the stream trips are streamed, and the late
// trips uploaded, again after the late upload, left pending like it. Each
// lap shifts the trips' times past every generated day, so every courier's
// trips keep arriving in time order. The laps give the write metrics three
// times the work of one pass, spread over a longer stretch of the run.
const lateLaps = 2

// streamLap streams every stream trip, its times shifted by lap times the
// generated days, as its own NDJSON session from one producer connection.
// Each acknowledgement must count exactly the fixes and the end marker
// sent. The bodies are encoded before the clock starts; the lap adds its
// fixes, busy time and session latencies to the stream metrics.
func (r *run) streamLap(lap int) error {
	shift := float64(lap*totalDays) * 86400
	bodies := make([][]byte, len(r.streamTrips))
	fixes := 0
	for i, tr := range r.streamTrips {
		bodies[i] = sessionBody(shifted(tr, shift))
		fixes += len(tr.Traj)
	}
	runtime.GC()
	name := fmt.Sprintf("phase.stream%d", lap)
	sp := r.tr.start(name, r.root)
	defer r.tr.end(sp)
	var buf bytes.Buffer
	c := startClock()
	for i, b := range bodies {
		t0 := time.Now()
		err := r.c.send(opStream, sp.id, http.MethodPost, "/v1/trajectories:stream", b, http.StatusOK, &buf)
		r.sessionLat = append(r.sessionLat, time.Since(t0))
		if err != nil {
			return fmt.Errorf("lap %d stream session %d: %w", lap, i, err)
		}
		var ack api.StreamIngestResponse
		if err := json.Unmarshal(buf.Bytes(), &ack); err != nil {
			return fmt.Errorf("lap %d stream session %d: decode: %w", lap, i, err)
		}
		if ack.Points != len(r.streamTrips[i].Traj) || ack.Ends != 1 {
			r.fail("lap %d stream session %d: acknowledged %d points / %d ends, sent %d / 1", lap, i, ack.Points, ack.Ends, len(r.streamTrips[i].Traj))
		}
	}
	wall, steal := c.elapsed()
	r.streamed += fixes
	r.streamBusy += busyOf(wall, steal)
	r.ref[name+"_wall_steal_s"] = []float64{wall.Seconds(), steal.Seconds()}
	return nil
}

// shifted returns a copy of tr with every fix's time moved by d seconds.
func shifted(tr model.Trip, d float64) model.Trip {
	out := tr
	out.Traj = make(traj.Trajectory, len(tr.Traj))
	for i, p := range tr.Traj {
		p.T += d
		out.Traj[i] = p
	}
	return out
}

// reinferPoll is how often the benchmark polls a running re-inference.
const reinferPoll = 10 * time.Millisecond

// reinfers is how many re-inferences the re-inference phase runs one after
// another; reinfer_s is their median. The first trains over the newly
// ingested and streamed trips and swaps out the store served since set-up;
// the others retrain over the same trips.
const reinfers = 3

// reinferPhase runs the re-inferences. Each is timed from its POST until
// the poll that reports it done, and each must leave a swap report that
// partitions both stores.
func (r *run) reinferPhase() error {
	sp := r.tr.start("phase.reinfer", r.root)
	defer r.tr.end(sp)
	var times []float64
	var raw [][2]float64
	var swaps []api.SwapReport
	for i := 0; i < reinfers; i++ {
		runtime.GC()
		start := startClock()
		var job api.JobStatus
		if err := r.c.callJSON(opReinfer, sp.id, http.MethodPost, "/v1/reinfer", nil, http.StatusAccepted, &job); err != nil {
			return err
		}
		for job.State == api.JobRunning {
			time.Sleep(reinferPoll)
			if err := r.c.callJSON(opReinferPoll, sp.id, http.MethodGet, "/v1/reinfer", nil, http.StatusOK, &job); err != nil {
				return err
			}
		}
		wall, steal := start.elapsed()
		times = append(times, busyOf(wall, steal).Seconds())
		raw = append(raw, [2]float64{wall.Seconds(), steal.Seconds()})
		if job.State != api.JobDone {
			return fmt.Errorf("re-inference %d ended %s: %s", i, job.State, job.Error)
		}
		swaps = append(swaps, r.checkNewestSwap())
	}
	r.metric("reinfer_s", "s", median(times))
	r.ref["reinfer_s_all"] = times
	r.ref["reinfer_wall_steal_s"] = raw
	r.ref["swaps"] = swaps
	return nil
}

// checkNewestSwap requires the newest hot-swap report to be a
// re-inference's and to partition both the outgoing and the incoming store.
func (r *run) checkNewestSwap() api.SwapReport {
	var resp api.SwapsResponse
	if err := r.c.callJSON(opSwaps, r.root, http.MethodGet, "/v1/debug/swaps?limit=1", nil, http.StatusOK, &resp); err != nil {
		r.fail("swaps: %v", err)
		return api.SwapReport{}
	}
	if len(resp.Swaps) == 0 {
		r.fail("swaps: no report after a re-inference")
		return api.SwapReport{}
	}
	sw := resp.Swaps[0]
	if sw.Kind != "reinfer" {
		r.fail("newest swap is a %q, want reinfer", sw.Kind)
	}
	if err := checkSwapPartition(sw); err != nil {
		r.fail("%v", err)
	}
	return sw
}

// accuracy scores the answers served after the re-inference and requires
// them to beat the geocoding baseline of the same city.
func (r *run) accuracy() {
	served, err := accuracyOf(points(r.post), r.facts.truth)
	if err != nil {
		r.fail("accuracy: %v", err)
		return
	}
	base, err := accuracyOf(r.facts.geocodes, r.facts.truth)
	if err != nil {
		r.fail("geocode baseline: %v", err)
		return
	}
	if err := checkBeatsBaseline(served, base); err != nil {
		r.fail("%v", err)
	}
	r.metric("beta50_pct", "%", served.Beta50Pct)
	r.metric("mae_m", "m", served.MAEm)
	r.ref["geocode_baseline"] = map[string]float64{"beta50_pct": base.Beta50Pct, "mae_m": base.MAEm}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
