package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chopper/api"
	"chopper/client"
	"chopper/internal/config"
	"chopper/internal/core"
	"chopper/internal/service"
	"chopper/internal/workloads"
)

// workers is the generator's worker and connection count: the container's
// CPU count, never more (see README.md).
const workers = 2

// frontend serves one handler on a loopback listener.
type frontend struct {
	http *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*frontend, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &frontend{http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { f.done <- f.http.Serve(ln) }()
	return f, nil
}

func (f *frontend) stop(ctx context.Context) error {
	err := f.http.Shutdown(ctx)
	if serr := <-f.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// daemon is an in-process chopperd. Server.Serve runs the worker pool (and a
// replica's journal puller) on a listener that carries no traffic; traffic
// arrives at front, which serves Server.Handler() — wrapped with spans when
// tracing.
type daemon struct {
	srv   *service.Server
	front *frontend
	done  chan error
}

func startDaemon(cfg service.Config, tr *tracer) (*daemon, error) {
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	poolLn, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(poolLn) }()
	if d.front, err = serve(tr.wrap("service", srv.Handler())); err != nil {
		_ = d.stop(context.Background()) // the listen error is the one to report
		return nil, err
	}
	return d, nil
}

// stop drains traffic, then the daemon (worker pool, final snapshot).
func (d *daemon) stop(ctx context.Context) error {
	var err error
	if d.front != nil {
		err = d.front.stop(ctx)
	}
	if serr := d.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-d.done; serr != nil && err == nil {
		err = serr
	}
	return err
}

// tracer switches span recording on a live server: handlers are wrapped once
// at start-up, and record into the current recorder, if any. Only requests
// the generator tagged with a rid query parameter are recorded.
type tracer struct{ cur atomic.Pointer[recorder] }

func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := t.cur.Load()
		if rec == nil {
			h.ServeHTTP(w, r)
			return
		}
		rid, _ := strconv.ParseInt(r.URL.Query().Get("rid"), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		if rid > 0 {
			rec.record(layer, r.Method+" "+r.URL.Path, rid, start, time.Now())
		}
	})
}

// loadClient is one generator worker's HTTP client: one connection.
func loadClient() *http.Client {
	return &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// sender performs scheduled ops against base with one client per worker.
type sender struct {
	base    string
	clients []*http.Client
	tr      *tracer

	mu      sync.Mutex
	submits []api.SubmitResponse
}

func newSender(base string, tr *tracer) *sender {
	s := &sender{base: base, tr: tr}
	for i := 0; i < workers; i++ {
		s.clients = append(s.clients, loadClient())
	}
	return s
}

// do sends one op; any non-2xx status or transport error is a failure.
func (s *sender) do(w int, o op) error {
	var req *http.Request
	var err error
	rid := strconv.FormatInt(o.ID, 10)
	switch o.Kind {
	case "recommend":
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/recommend?workload="+o.Workload+"&rid="+rid, nil)
	case "submit":
		body, _ := json.Marshal(api.SubmitRequest{Workload: o.Workload, Tuned: true}) // plain struct: cannot fail
		req, err = http.NewRequest(http.MethodPost, s.base+"/v1/jobs?rid="+rid, bytes.NewReader(body))
	case "train":
		noRange := false
		body, _ := json.Marshal(api.TrainRequest{Workload: o.Workload, SizeFractions: []float64{1.0}, Partitions: []int{300}, Range: &noRange})
		req, err = http.NewRequest(http.MethodPost, s.base+"/v1/train?rid="+rid, bytes.NewReader(body))
	default:
		return fmt.Errorf("unknown op kind %q", o.Kind)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	resp, err := s.clients[w].Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end above
	if rec := s.tr.cur.Load(); rec != nil {
		rec.record("http", o.Kind, o.ID, start, time.Now())
	}
	if err != nil {
		return fmt.Errorf("read %s response: %w", o.Kind, err)
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{kind: o.Kind, workload: o.Workload, code: resp.StatusCode}
	}
	if o.Kind == "submit" {
		var sr api.SubmitResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return fmt.Errorf("decode submit response: %w", err)
		}
		s.mu.Lock()
		s.submits = append(s.submits, sr)
		s.mu.Unlock()
	}
	return nil
}

// run executes ops as an open loop on every worker and, when tracing,
// records each op's generator span: from the moment a worker took the op up
// to its completion. A worker's spans tile its time, so the loadgen layer's
// self time is the workers' wait for due times plus their own bookkeeping,
// and the spans of all workers sum to the window's elapsed time × workers.
func (s *sender) run(ops []op) []outcome {
	return s.record(runOpenLoop(ops, workers, s.do))
}

func (s *sender) record(outs []outcome) []outcome {
	if rec := s.tr.cur.Load(); rec != nil {
		for _, o := range outs {
			rec.record("loadgen", o.Op.Kind, o.Op.ID, o.Claimed, o.End)
		}
	}
	return outs
}

// trainAll trains every app through base with the default trial plan, at
// most `workers` at a time.
func trainAll(base string) error {
	cl := &client.Client{Base: base, HTTP: &http.Client{Timeout: 10 * time.Minute}}
	errs := make([]error, len(apps))
	var wg sync.WaitGroup
	next := make(chan int, len(apps)) // holds every app index
	for i := range apps {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				_, errs[i] = cl.Train(context.Background(), api.TrainRequest{Workload: apps[i]})
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mixPicker deals the ops' apps from a seeded shuffle of the four apps,
// reshuffled every four ops: the seed sets the order, while every window
// holds each app equally often, so a seed changes the order, not the load.
func mixPicker(seed int64, kind string) func(int) (string, string) {
	rng := rand.New(rand.NewSource(seed))
	deck := append([]string(nil), apps...)
	return func(i int) (string, string) {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		return kind, deck[i%len(deck)]
	}
}

// number assigns request ids, unique across a run, in place.
func number(ops []op, next *int64) []op {
	for i := range ops {
		*next++
		ops[i].ID = *next
	}
	return ops
}

// expectedRecommend renders what /v1/recommend must answer for app from a
// DB snapshot: GenerateConfig on CloneWorkload, in the server's JSON form.
func expectedRecommend(db *core.DB, app string) ([]byte, error) {
	w, err := workloads.ByName(app)
	if err != nil {
		return nil, err
	}
	bytesIn := w.DefaultInputBytes()
	cf, err := core.NewOptimizer(db.CloneWorkload(app)).GenerateConfig(app, float64(bytesIn))
	if err != nil {
		return nil, fmt.Errorf("optimize %s: %w", app, err)
	}
	resp := api.RecommendResponse{Workload: app, InputBytes: bytesIn, Schemes: schemeEntries(cf),
		Runs: db.RunCount(app), Samples: db.SampleCount(app)}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func schemeEntries(cf *config.File) []api.SchemeEntry {
	out := make([]api.SchemeEntry, 0, len(cf.Entries))
	for _, e := range cf.Entries {
		out = append(out, api.SchemeEntry{Signature: e.Signature, Scheme: string(e.Scheme),
			NumPartitions: e.NumPartitions, InsertRepartition: e.InsertRepartition})
	}
	return out
}

// getRaw fetches base+path and returns the body of a 200 response.
func getRaw(base, path string) ([]byte, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, raw)
	}
	return raw, nil
}

// probeCore times the optimizer path a recommend takes — CloneWorkload then
// GenerateConfig — directly on db, n times per app, as core spans.
func probeCore(db *core.DB, n int, rec *recorder, rep *report) {
	var cloneUs, optMs []float64
	for _, app := range apps {
		w, err := workloads.ByName(app)
		if err != nil {
			continue
		}
		for i := 0; i < n; i++ {
			end := rec.push("bench", "core.probe")
			t0 := time.Now()
			endClone := rec.push("core", "CloneWorkload")
			snap := db.CloneWorkload(app)
			endClone()
			t1 := time.Now()
			endOpt := rec.push("core", "GenerateConfig")
			_, err := core.NewOptimizer(snap).GenerateConfig(app, float64(w.DefaultInputBytes()))
			endOpt()
			t2 := time.Now()
			end()
			if err != nil {
				rep.check(false, "optimize %s on a snapshot: %v", app, err)
				continue
			}
			cloneUs = append(cloneUs, float64(t1.Sub(t0))/1e3)
			optMs = append(optMs, ms(t2.Sub(t1)))
		}
	}
	if len(optMs) > 0 {
		rep.layer.set("core.clone_us", median(cloneUs))
		rep.layer.set("core.optimize_ms", median(optMs))
		rep.layer.set("core.optimize_calls", float64(len(optMs)))
	}
	var samples int
	for _, app := range apps {
		samples += db.SampleCount(app)
	}
	rep.layer.set("core.db_samples", float64(samples))
}

// requestLayers derives the request-path per-layer metrics from the spans of
// served requests: handler wall per route, the client's round trip beyond
// the outermost handler, and the router's hop beyond the backend handler.
func requestLayers(spans []span, rep *report) {
	type reqSpans struct {
		kind                    string
		client, router, backend int64
	}
	byReq := map[int64]*reqSpans{}
	for _, s := range spans {
		if s.Req == 0 {
			continue
		}
		r := byReq[s.Req]
		if r == nil {
			r = &reqSpans{}
			byReq[s.Req] = r
		}
		switch s.Layer {
		case "http":
			r.client, r.kind = s.dur(), s.Name
		case "fleet":
			r.router = s.dur()
		case "service":
			r.backend = s.dur()
		}
	}
	var recMs, subMs, overMs, hopMs []float64
	for _, r := range byReq {
		if r.client == 0 || r.backend == 0 {
			continue
		}
		outer := r.backend
		if r.router > 0 {
			outer = r.router
			hopMs = append(hopMs, float64(r.router-r.backend)/1e6)
		}
		switch r.kind {
		case "recommend":
			recMs = append(recMs, float64(r.backend)/1e6)
			overMs = append(overMs, float64(r.client-outer)/1e6)
		case "submit":
			subMs = append(subMs, float64(r.backend)/1e6)
		}
	}
	set := func(name string, xs []float64) {
		if len(xs) > 0 {
			rep.layer.set(name, median(xs))
		}
	}
	set("service.recommend_ms", recMs)
	set("service.submit_ms", subMs)
	set("http.overhead_ms", overMs)
	set("fleet.router_hop_ms", hopMs)
}

// traceWindow runs one window with spans on and reports the serving
// workload's per-layer metrics from it; untraced is the same window measured
// with spans off, the reference for the tracing overhead. The core layer is
// timed on probeDB once the window has ended. The coverage check measures
// the spans against the window's elapsed time × the generator's workers,
// plus the probes' elapsed time.
func traceWindow(cfg runConfig, rep *report, tr *tracer, primary, replica *daemon, probeDB *core.DB,
	untraced []outcome, window func() []outcome) error {
	rec := newRecorder()
	smp := startSampler(primary, replica)
	rt0 := readRuntime()
	tr.cur.Store(rec)
	t0 := time.Now()
	traced := window()
	elapsed := time.Since(t0)
	tr.cur.Store(nil)
	rt1 := readRuntime()
	queueMax, lagMax := smp.stop()
	rep.layer.set("service.rejected", float64(countOutcomes(traced, rep)))
	rep.layer.set("service.queue_depth_max", float64(queueMax))
	rep.layer.set("fleet.repl_lag_bytes_max", float64(lagMax))
	late, backlog := generatorHealth(traced)
	rep.layer.set("loadgen.late_p99_ms", late)
	rep.layer.set("loadgen.backlog_max", float64(backlog))
	runtimeLayer(rt0, rt1, rep.layer)
	base := meanLatency(untraced, "recommend")
	rep.traceOverhead(meanLatency(traced, "recommend")-base, base)
	t1 := time.Now()
	probeCore(probeDB, 10, rec, rep)
	probes := time.Since(t1)
	spans := rec.finish()
	requestLayers(spans, rep)
	return rep.writeTrace(cfg, spans, selfTimes(spans), int64(elapsed)*workers+int64(probes))
}

// meanLatency is the mean latency, in ms, of successful ops of one kind.
func meanLatency(outs []outcome, kind string) float64 {
	lat, _ := latencies(outs, kind)
	var s float64
	for _, x := range lat {
		s += x
	}
	return s / float64(len(lat))
}

// statusError is a non-2xx answer.
type statusError struct {
	kind, workload string
	code           int
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: status %d", e.kind, e.workload, e.code)
}

// countOutcomes adds outs to the run's attempted/failed totals and returns
// how many were refused by admission control (429).
func countOutcomes(outs []outcome, rep *report) (rejected int) {
	rep.attempted += len(outs)
	for _, o := range outs {
		if o.Err == nil {
			continue
		}
		rep.failed++
		var se *statusError
		if errors.As(o.Err, &se) && se.code == http.StatusTooManyRequests {
			rejected++
		}
	}
	return rejected
}

func jsonUnmarshal(raw []byte, v any) error {
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("decode %T: %w", v, err)
	}
	return nil
}
