package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flumen/internal/cluster"
	"flumen/internal/loadgen"
	"flumen/internal/registry"
	"flumen/internal/serve"
)

const (
	// setups is how many times a run boots its fleet; setup_s is the median.
	setups = 7
	// refPasses is how many serial reference passes a serving run makes.
	refPasses = 5
	// warmup is driven before the measured window and not counted.
	warmup = time.Second
	// backendPort is the first of the fixed loopback ports the backends
	// bind. The router ranks backends by a hash of their URL, so fixed
	// ports make placement the same in every run.
	backendPort = 17301
	// churnRate is churn-routed's open-loop arrival rate: about 40% of the
	// closed-loop capacity of a 2-vCPU box on this mix (about 520/s). Near
	// 60% the queue turned a few percent of host CPU steal into a twofold
	// run-to-run spread in latency.
	churnRate = 200
	// churnTenants is how many independent streams churn-routed merges.
	// The router places each weight matrix by hash, so with one Zipf
	// catalog the seed alone decided how lopsided the two backends were
	// (the busiest took 54% to 74% of requests) and with it the latency
	// tail; three catalogs average that out.
	churnTenants = 3
	// hotStreamLen is how many distinct requests hot-matmul's closed loop
	// cycles through.
	hotStreamLen = 2048
)

// servingWorkload describes one serving workload: the fleet, and the
// traffic as one generated stream per tenant.
type servingWorkload struct {
	backends int // more than one puts a flumen-router in front
	tenants  []loadgen.Config
}

func (w *servingWorkload) openLoop() bool { return w.tenants[0].RatePerSec > 0 }

func (w *servingWorkload) byName() bool { return w.tenants[0].ByNameFraction > 0 }

// request is one generated request with its tenant's stream and its
// reference answer.
type request struct {
	*loadgen.Request
	st   *loadgen.Stream
	want *loadgen.Expected
}

// clients is the number of client connections: one per CPU, at most two.
func clients() int { return min(2, runtime.NumCPU()) }

// hotMatmul: one flumend reached directly, matmuls by registered name over
// the default 12-matrix catalog (every block pinned), closed loop.
func hotMatmul(p params) (*report, error) {
	g := loadgen.DefaultConfig()
	g.Seed = p.seed
	g.Requests = hotStreamLen
	g.Concurrency = clients()
	g.Mix = loadgen.Mix{MatMul: 1}
	g.ByNameFraction = 1
	return runServing(p, &servingWorkload{backends: 1, tenants: []loadgen.Config{g}})
}

// churnRouted: flumen-router over two backends, the full mix with inline
// weights from three tenants' 32-matrix catalogs (96 matrices, more blocks
// than the program cache), open loop.
func churnRouted(p params) (*report, error) {
	w := &servingWorkload{backends: 2}
	for t := int64(0); t < churnTenants; t++ {
		g := loadgen.DefaultConfig()
		g.Seed = p.seed*churnTenants + t + 1
		g.Concurrency = clients()
		g.Matrices = 96 / churnTenants
		g.ZipfS = 1.1
		g.ByNameFraction = 0
		g.RatePerSec = churnRate / churnTenants
		g.Requests = int(g.RatePerSec * (warmup.Seconds() + float64(p.seconds)))
		w.tenants = append(w.tenants, g)
	}
	return runServing(p, w)
}

func runServing(p params, w *servingWorkload) (*report, error) {
	rep := newReport()
	rep.layers = []string{"loadgen", "serve", "engine", "photonic"}
	if w.backends > 1 {
		rep.layers = append(rep.layers, "cluster")
	}
	if w.byName() {
		rep.layers = append(rep.layers, "registry")
	}

	scfg := serve.DefaultConfig()
	scfg.TraceEnabled = p.traced
	reqs, streams, consistent, err := inputs(w, scfg, rep)
	if err != nil {
		return nil, err
	}
	var specs []*registry.Spec
	for _, st := range streams {
		specs = append(specs, st.ModelSpecs()...)
	}
	rep.info["clients"] = clients()
	if w.openLoop() {
		rep.info["open_loop_rate_per_s"] = churnRate
	}

	rcfg := cluster.DefaultConfig()
	rcfg.Addr = "127.0.0.1:0"
	rcfg.Seed = 1
	rcfg.TraceEnabled = p.traced
	rcfg.TraceRing = 1 << 14

	var (
		f                        *fleet
		setupS, regMS, prewarmMS []float64
	)
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var t setupTimes
		f, t, err = setUp(w.backends, scfg, rcfg, specs)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, t.total.Seconds())
		regMS = append(regMS, t.registerMean)
		prewarmMS = append(prewarmMS, t.prewarm)
	}
	rep.values["setup_s"] = median(setupS)
	if w.byName() {
		rep.values["registry.register_ms_mean"] = median(regMS)
		rep.values["registry.prewarm_ms"] = median(prewarmMS)
	}

	ls, err := drive(p, w, f, reqs, rep)
	if stopErr := f.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	rep.attempted = ls.attempted
	rep.failed = ls.failed
	rep.correct = ls.mismatches == 0 && consistent
	if ls.mismatches > 0 {
		rep.info["mismatches"] = ls.mismatches
		rep.info["first_mismatch"] = ls.firstMismatch
	}
	if ls.failed > 0 {
		rep.info["first_failure"] = ls.firstFailure
	}
	rep.values["ok_ratio"] = ratio(float64(ls.ok), float64(ls.attempted))
	// Latency percentiles are taken over the requests of the quieter half of
	// the one-second slices of the window.
	var lat, perSec []float64
	for _, i := range quietest(ls.steal) {
		lat = append(lat, ls.lat[i]...)
		perSec = append(perSec, float64(len(ls.lat[i])))
	}
	rep.values["latency_p50_ms"] = percentile(lat, 50)
	rep.values["latency_p90_ms"] = percentile(lat, 90)
	rep.values["throughput_rps"] = float64(ls.ok) / ls.window.Seconds()
	if !w.openLoop() {
		rep.values["throughput_rps"] = median(perSec)
	}
	rep.info["latency_samples"] = ls.ok
	rep.info["host_steal_share"] = stealShare(ls.steal, time.Second)

	if p.traced {
		rep.values["loadgen.send_late_p99_ms"] = percentile(ls.late, 99)
		var bytes float64
		for _, r := range reqs {
			bytes += float64(len(r.Body))
		}
		rep.values["loadgen.request_kb_mean"] = bytes / float64(len(reqs)) / 1000
		if err := exactCounts(reqs, streams, scfg, rep); err != nil {
			return nil, err
		}
		if err := photonicLayer(streams, scfg, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// inputs generates every tenant's stream, makes the reference passes (whose
// quieter half gives suite_s) and merges the requests by scheduled arrival.
// consistent is false when the passes disagree on a conformance digest.
func inputs(w *servingWorkload, scfg serve.Config, rep *report) (reqs []request, streams []*loadgen.Stream, consistent bool, err error) {
	ref, err := serve.NewReference(scfg)
	if err != nil {
		return nil, nil, false, err
	}
	for _, g := range w.tenants {
		st, err := loadgen.NewStream(g, ref.InferShapes())
		if err != nil {
			return nil, nil, false, err
		}
		streams = append(streams, st)
	}
	// A reference pass is a serial run of every stream through the
	// library.
	var (
		exps          [][]loadgen.Expected
		confDigests   []string
		passes, steal []float64
	)
	consistent = true
	for i := 0; i < refPasses; i++ {
		runtime.GC()
		s0, t := hostSteal(), time.Now()
		var (
			es [][]loadgen.Expected
			ds []string
		)
		for _, st := range streams {
			e, d, err := st.Expect(scfg)
			if err != nil {
				return nil, nil, false, err
			}
			es, ds = append(es, e), append(ds, d)
		}
		passes = append(passes, time.Since(t).Seconds())
		steal = append(steal, hostSteal()-s0)
		if exps == nil {
			exps, confDigests = es, ds
		} else if !slices.Equal(ds, confDigests) {
			consistent = false
			rep.info["reference_digest_mismatch"] = ds
		}
	}
	rep.values["suite_s"] = median(pick(passes, quietest(steal)))

	// A closed loop has no schedule, so its single stream keeps its order.
	var digests []string
	for k, st := range streams {
		for i := range st.Requests {
			reqs = append(reqs, request{&st.Requests[i], st, &exps[k][i]})
		}
		digests = append(digests, st.RequestDigest())
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
	rep.info["request_digests"] = digests
	rep.info["conformance_digests"] = confDigests
	rep.info["requests"] = len(reqs)
	return reqs, streams, consistent, nil
}

// drive runs the traffic against a set-up fleet and, on traced runs,
// collects the serving and routing layers' numbers around it.
func drive(p params, w *servingWorkload, f *fleet, reqs []request, rep *report) (*loadStats, error) {
	tr := &http.Transport{MaxConnsPerHost: clients(), MaxIdleConnsPerHost: clients(), DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	var before []promSample
	var rBefore cluster.Stats
	if p.traced {
		var err error
		if before, err = scrapeAll(client, f); err != nil {
			return nil, err
		}
		if f.router != nil {
			rBefore = f.router.Stats()
		}
	}
	window := time.Duration(p.seconds) * time.Second
	runtime.GC()
	var ls *loadStats
	if w.openLoop() {
		ls = openLoop(client, f.url, reqs, window)
	} else {
		ls = closedLoop(client, f.url, reqs, window)
	}
	if !p.traced {
		return ls, nil
	}

	after, err := scrapeAll(client, f)
	if err != nil {
		return nil, err
	}
	served := 0.0
	for i := range after {
		served += after[i].sumPrefix("flumend_requests_total{") - before[i].sumPrefix("flumend_requests_total{")
	}
	delta := func(key string) float64 {
		var d float64
		for i := range after {
			d += after[i][key] - before[i][key]
		}
		return d
	}
	stageMS := func(stage string) float64 {
		return ratio(delta(`flumend_stage_seconds_sum{stage="`+stage+`"}`)*1000, served)
	}
	rep.values["serve.decode_ms_mean"] = stageMS("decode")
	rep.values["serve.queue_wait_ms_mean"] = stageMS("queue_wait")
	rep.values["serve.coalesce_ms_mean"] = stageMS("coalesce")
	rep.values["serve.exec_ms_mean"] = stageMS("exec")
	rep.values["serve.write_ms_mean"] = stageMS("write")
	rep.values["engine.lease_wait_ms_mean"] = stageMS("lease_wait")
	rep.values["serve.batch_size_mean"] = ratio(delta("flumend_batched_requests_total"), delta("flumend_batches_executed_total"))
	rep.values["serve.rejected_per_req"] = ratio(delta("flumend_rejected_total"), float64(ls.sent))

	if f.router != nil {
		if err := routerLayer(client, f, rBefore, rep); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// routerLayer reads the router's counters and its recent-request ring.
func routerLayer(client *http.Client, f *fleet, before cluster.Stats, rep *report) error {
	after := f.router.Stats()
	routed := float64(after.Routed - before.Routed)
	rep.values["cluster.affinity_hit_ratio"] = ratio(float64(after.AffinityHits-before.AffinityHits), routed)
	rep.values["cluster.retries_per_req"] = ratio(float64(after.Retries-before.Retries), routed)
	rep.values["cluster.spills_per_req"] = ratio(float64(after.Spills-before.Spills), routed)
	var total, top float64
	for i, b := range after.Backends {
		n := float64(b.Requests - before.Backends[i].Requests)
		total += n
		top = max(top, n)
	}
	rep.values["cluster.backend_share_max"] = ratio(top, total)

	var recs []struct {
		TotalMS float64            `json:"total_ms"`
		Stages  map[string]float64 `json:"stages"`
	}
	if err := getJSON(client, f.url+"/debug/requests", &recs); err != nil {
		return err
	}
	var sel, self []float64
	for _, r := range recs {
		sel = append(sel, r.Stages["router_select"])
		self = append(self, r.TotalMS-r.Stages["router_hop"])
	}
	rep.values["cluster.select_ms_mean"] = mean(sel)
	rep.values["cluster.router_self_ms_mean"] = mean(self)
	rep.info["router_trace_records"] = len(recs)
	return nil
}

// --- fleet -------------------------------------------------------------------

// fleet is the serving stack under test: flumend backends on fixed
// loopback ports and, for more than one, a flumen-router in front.
type fleet struct {
	servers []*serve.Server
	router  *cluster.Router
	url     string
	stops   []func() error
}

func startFleet(n int, scfg serve.Config, rcfg cluster.Config) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		c := scfg
		c.Addr = fmt.Sprintf("127.0.0.1:%d", backendPort+i)
		c.NodeID = fmt.Sprintf("node-%d", i)
		srv, err := serve.New(c)
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := srv.Listen(); err != nil {
			srv.Close()
			f.stop()
			return nil, fmt.Errorf("backend %d: %w", i, err)
		}
		f.servers = append(f.servers, srv)
		f.stops = append(f.stops, runInBackground(srv.Run))
		urls = append(urls, "http://"+srv.Addr())
	}
	f.url = urls[0]
	if n > 1 {
		rcfg.Backends = urls
		rt, err := cluster.New(rcfg)
		if err != nil {
			f.stop()
			return nil, err
		}
		if err := rt.Listen(); err != nil {
			rt.Shutdown()
			f.stop()
			return nil, err
		}
		f.router = rt
		f.stops = append(f.stops, runInBackground(rt.Run))
		f.url = "http://" + rt.Addr()
	}
	return f, nil
}

// runInBackground starts run and returns a function that cancels it and
// waits for it to return.
func runInBackground(run func(context.Context) error) func() error {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx) }()
	return func() error {
		cancel()
		return <-done
	}
}

// stop drains the router, then the backends, and waits for all of them.
func (f *fleet) stop() error {
	var first error
	for i := len(f.stops) - 1; i >= 0; i-- {
		if err := f.stops[i](); err != nil && first == nil {
			first = err
		}
	}
	f.stops = nil
	return first
}

type setupTimes struct {
	total        time.Duration
	registerMean float64 // ms per model registration
	prewarm      float64 // ms from the last registration until every program is pinned
}

// setUp boots a fleet, waits until its entry point answers /healthz,
// registers the models and waits until every backend has compiled and
// pinned their programs.
func setUp(n int, scfg serve.Config, rcfg cluster.Config, specs []*registry.Spec) (*fleet, setupTimes, error) {
	var t setupTimes
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	start := time.Now()
	f, err := startFleet(n, scfg, rcfg)
	if err != nil {
		return nil, t, err
	}
	fail := func(err error) (*fleet, setupTimes, error) {
		f.stop()
		return nil, t, err
	}
	for {
		var h struct{ Status string }
		if err := getJSON(client, f.url+"/healthz", &h); err == nil && h.Status == "ok" {
			break
		}
		if time.Since(start) > 30*time.Second {
			return fail(fmt.Errorf("fleet at %s never became healthy", f.url))
		}
		time.Sleep(time.Millisecond)
	}
	var reg []float64
	for _, spec := range specs {
		t0 := time.Now()
		if err := postJSON(client, f.url+"/v1/models", spec); err != nil {
			return fail(fmt.Errorf("registering %s: %w", spec.Ref(), err))
		}
		reg = append(reg, ms(time.Since(t0)))
	}
	t.registerMean = mean(reg)
	regDone := time.Now()
	for _, srv := range f.servers {
		for srv.Registry().Stats().PrewarmPending > 0 {
			if time.Since(regDone) > 30*time.Second {
				return fail(fmt.Errorf("prewarm did not finish on %s", srv.NodeID()))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	t.prewarm = ms(time.Since(regDone))
	t.total = time.Since(start)
	return f, t, nil
}

// --- traffic -----------------------------------------------------------------

// loadStats accumulates one client's view of the traffic. Only requests in
// the measured window count toward attempted, failed, ok and the latency
// samples; every response, warm-up included, is checked.
type loadStats struct {
	sent, attempted, ok, failed, mismatches int
	lat                                     [][]float64 // ms, per one-second slice of the window
	steal                                   []float64   // host steal in each slice, s
	late                                    []float64   // ms
	firstMismatch, firstFailure             string
	window                                  time.Duration
	lastDone                                time.Time
}

// record books one response; slice is the one-second slice of the
// measured window the request belongs to, or -1 during warm-up.
func (ls *loadStats) record(r request, status int, body []byte, err error, slice int, latMS, lateMS float64) {
	ls.sent++
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if err == nil {
		if d := checkResponse(r.Request, body, r.want); d != "" {
			ls.mismatches++
			if ls.firstMismatch == "" {
				ls.firstMismatch = r.RequestID + ": " + d
			}
		}
	}
	if slice < 0 {
		return
	}
	ls.attempted++
	if err != nil {
		ls.failed++
		if ls.firstFailure == "" {
			ls.firstFailure = r.RequestID + ": " + err.Error()
		}
		return
	}
	ls.ok++
	ls.lat[slice] = append(ls.lat[slice], latMS)
	ls.late = append(ls.late, lateMS)
}

func newLoadStats(nSlices int) *loadStats { return &loadStats{lat: make([][]float64, nSlices)} }

func merge(per []*loadStats) *loadStats {
	out := newLoadStats(len(per[0].lat))
	for _, ls := range per {
		out.sent += ls.sent
		out.attempted += ls.attempted
		out.ok += ls.ok
		out.failed += ls.failed
		out.mismatches += ls.mismatches
		for i, xs := range ls.lat {
			out.lat[i] = append(out.lat[i], xs...)
		}
		out.late = append(out.late, ls.late...)
		if out.firstMismatch == "" {
			out.firstMismatch = ls.firstMismatch
		}
		if out.firstFailure == "" {
			out.firstFailure = ls.firstFailure
		}
		if ls.lastDone.After(out.lastDone) {
			out.lastDone = ls.lastDone
		}
	}
	return out
}

// closedLoop has each client send its next request when the previous one
// answers, cycling through the stream, for warmup plus window. Latency runs
// from send to the end of the response body.
func closedLoop(client *http.Client, url string, reqs []request, window time.Duration) *loadStats {
	var next atomic.Int64
	warmEnd := time.Now().Add(warmup)
	end := warmEnd.Add(window)
	nSlices := int(window / time.Second)
	steal := sliceSteal(warmEnd, nSlices)
	per := make([]*loadStats, clients())
	var wg sync.WaitGroup
	for c := range per {
		ls := newLoadStats(nSlices)
		per[c] = ls
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(end) {
					return
				}
				r := reqs[int(next.Add(1)-1)%len(reqs)]
				status, body, err := send(client, url, r.Request)
				lat := ms(time.Since(start))
				slice := -1
				if !start.Before(warmEnd) {
					slice = min(int(start.Sub(warmEnd)/time.Second), nSlices-1)
				}
				ls.record(r, status, body, err, slice, lat, 0)
			}
		}()
	}
	wg.Wait()
	ls := merge(per)
	ls.window = window
	ls.steal = steal()
	return ls
}

// openLoop sends every request at its scheduled arrival time, whatever the
// state of earlier ones, over at most clients() connections. Latency and
// lateness run from the scheduled time, so a stall that delays later
// requests counts against them.
func openLoop(client *http.Client, url string, reqs []request, window time.Duration) *loadStats {
	due := make(chan int)
	start := time.Now()
	nSlices := int(window / time.Second)
	steal := sliceSteal(start.Add(warmup), nSlices)
	per := make([]*loadStats, clients())
	var wg sync.WaitGroup
	for c := range per {
		ls := newLoadStats(nSlices)
		per[c] = ls
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				r := reqs[i]
				at := start.Add(r.Arrival)
				sent := time.Now()
				status, body, err := send(client, url, r.Request)
				done := time.Now()
				slice := -1
				if r.Arrival >= warmup {
					slice = min(int((r.Arrival-warmup)/time.Second), nSlices-1)
				}
				ls.record(r, status, body, err, slice, ms(done.Sub(at)), ms(sent.Sub(at)))
				ls.lastDone = done
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(reqs[i].Arrival)); d > 0 {
			time.Sleep(d)
		}
		due <- i
	}
	close(due)
	wg.Wait()
	ls := merge(per)
	ls.window = ls.lastDone.Sub(start.Add(warmup))
	ls.steal = steal()
	return ls
}

// send posts one generated request and returns the status and body.
func send(client *http.Client, url string, r *loadgen.Request) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+r.Path, bytes.NewReader(r.Body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.HeaderRequestID, r.RequestID)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkResponse compares a 200 body bit for bit with the reference answer
// and describes the first difference ("" when they match).
func checkResponse(r *loadgen.Request, body []byte, want *loadgen.Expected) string {
	switch r.Op {
	case loadgen.OpMatMul:
		var got serve.MatMulResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err.Error()
		}
		return diff2D(got.C, want.C)
	case loadgen.OpConv2D:
		var got serve.Conv2DResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err.Error()
		}
		return diff3D(got.Output, want.Output)
	case loadgen.OpInfer:
		var got serve.InferResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err.Error()
		}
		if got.Class != want.Class {
			return fmt.Sprintf("class %d, reference %d", got.Class, want.Class)
		}
		return diff1D(got.Logits, want.Logits)
	}
	return "unknown op " + string(r.Op)
}

func diff1D(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, reference %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	return ""
}

func diff2D(got, want [][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got), len(want))
	}
	for i := range got {
		if d := diff1D(got[i], want[i]); d != "" {
			return fmt.Sprintf("row %d: %s", i, d)
		}
	}
	return ""
}

func diff3D(got, want [][][]float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d planes, reference %d", len(got), len(want))
	}
	for k := range got {
		if d := diff2D(got[k], want[k]); d != "" {
			return fmt.Sprintf("plane %d: %s", k, d)
		}
	}
	return ""
}

// --- HTTP helpers ------------------------------------------------------------

func getJSON(client *http.Client, url string, dst any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

func postJSON(client *http.Client, url string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// promSample is one scrape of a Prometheus text exposition, keyed by the
// series name with its labels, e.g. flumend_stage_seconds_sum{stage="exec"}.
type promSample map[string]float64

func (s promSample) sumPrefix(prefix string) float64 {
	var sum float64
	for k, v := range s {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// scrapeAll reads every backend's /metrics.
func scrapeAll(client *http.Client, f *fleet) ([]promSample, error) {
	var out []promSample
	for _, srv := range f.servers {
		s, err := scrape(client, "http://"+srv.Addr()+"/metrics")
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func scrape(client *http.Client, url string) (promSample, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	s := promSample{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(string(line[i+1:]), &v); err != nil {
			continue
		}
		s[string(line[:i])] = v
	}
	return s, nil
}
