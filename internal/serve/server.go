package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"flumen"
	"flumen/internal/fabric"
	"flumen/internal/registry"
	"flumen/internal/trace"
)

// Server is the flumend HTTP front end: handlers decode and validate
// requests, thread per-request deadlines as contexts, and hand work to the
// batching scheduler. Responsibilities split cleanly: the handler owns the
// client connection and its deadline; the scheduler owns the fabric.
type Server struct {
	cfg     Config
	acc     *flumen.Accelerator
	sched   *scheduler
	met     *metrics
	models  map[string]*inferModel
	reg     *registry.Registry
	ring    *trace.Ring // recent request traces, served at /debug/requests
	mux     *http.ServeMux
	handler http.Handler // mux wrapped with the identity middleware

	httpSrv *http.Server
	lis     net.Listener
}

// New builds a server (and its accelerator) from the config. The server is
// ready to use as an http.Handler immediately; Run additionally binds a
// listener and manages graceful drain.
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	acc, err := flumen.NewAccelerator(cfg.Ports, cfg.BlockSize)
	if err != nil {
		return nil, err
	}
	if cfg.Workers > 0 {
		acc.SetWorkers(cfg.Workers)
	}
	if cfg.CacheSize != 0 {
		acc.SetProgramCacheSize(cfg.CacheSize)
	}
	if cfg.Precision > 0 {
		acc.SetPrecision(cfg.Precision)
	}
	if cfg.Fabric != nil {
		fcfg := *cfg.Fabric
		fcfg.Partitions = acc.NumPartitions()
		if fcfg.Nodes == 0 {
			fcfg.Nodes = acc.NumPartitions()
		}
		arb, err := fabric.New(fcfg)
		if err != nil {
			return nil, err
		}
		if err := acc.AttachFabric(arb); err != nil {
			return nil, err
		}
	}
	if cfg.Health != nil {
		if err := acc.EnableHealthMonitor(*cfg.Health); err != nil {
			return nil, err
		}
	}

	s := &Server{
		cfg:    cfg,
		acc:    acc,
		met:    newMetrics(),
		models: buildModels(cfg.InferSeed),
		ring:   trace.NewRing(cfg.TraceRing),
		mux:    http.NewServeMux(),
	}
	// The registry opens after the cache size is final (SetProgramCacheSize
	// replaces the cache and would drop prewarm pins) and always runs —
	// without -store it is memory-only, so /v1/models and by-reference
	// requests work either way and only persistence is opt-in.
	reg, err := registry.Open(registry.Config{
		Dir:    cfg.StoreDir,
		Engine: acc,
		Logf:   log.Printf,
	})
	if err != nil {
		return nil, err
	}
	s.reg = reg
	s.sched = newScheduler(cfg, acc, s.met)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/matmul", s.handleMatMul)
	s.mux.HandleFunc("POST /v1/conv2d", s.handleConv2D)
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/models", s.handleModelRegister)
	s.mux.HandleFunc("GET /v1/models", s.handleModelList)
	s.mux.HandleFunc("DELETE /v1/models/{ref}", s.handleModelDelete)
	s.mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if cfg.EnablePprof {
		// Index serves every named profile (heap, goroutine, mutex, block,
		// allocs) under the prefix; the four fixed handlers are the ones the
		// index cannot route itself.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.handler = s.identity(s.mux)
	s.httpSrv = &http.Server{Handler: s.handler}
	return s, nil
}

// identity stamps every response with this node's name and the request's
// correlation ID (client-supplied X-Request-ID, minted here when absent),
// so multi-node deployments can attribute any response — success or
// failure — to the backend that produced it.
func (s *Server) identity(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(HeaderRequestID)
		if id == "" {
			id = NewRequestID()
			r.Header.Set(HeaderRequestID, id)
		}
		w.Header().Set(HeaderRequestID, id)
		w.Header().Set(HeaderNode, s.cfg.NodeID)
		next.ServeHTTP(w, r)
	})
}

// Handler exposes the route table wrapped in the identity middleware (used
// directly by tests; Run wraps it in a managed listener).
func (s *Server) Handler() http.Handler { return s.handler }

// NodeID returns this instance's cluster identity (the X-Flumen-Node value).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// Accelerator exposes the backing accelerator's public surface (read-only
// observation, e.g. Stats()).
func (s *Server) Accelerator() *flumen.Accelerator { return s.acc }

// Registry exposes the model registry (tests and tools inspect it; requests
// go through the /v1/models API).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Fabric returns the attached dynamic fabric arbiter, or nil when the
// server runs with dedicated compute partitions. A NoP driver feeds it
// per-cycle telemetry via Tick.
func (s *Server) Fabric() *fabric.Arbiter { return s.acc.Fabric() }

// Addr returns the bound listen address once Run has started.
func (s *Server) Addr() string {
	if s.lis == nil {
		return s.cfg.Addr
	}
	return s.lis.Addr().String()
}

// Listen binds the configured address without serving yet, so callers can
// learn the bound port (Addr) before traffic starts.
func (s *Server) Listen() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	return nil
}

// Run serves until ctx is cancelled, then drains gracefully: the listener
// stops accepting, in-flight handlers get DrainTimeout to finish, and
// queued work is executed before the scheduler exits. Returns nil on a
// clean drain.
func (s *Server) Run(ctx context.Context) error {
	if s.lis == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.httpSrv.Serve(s.lis) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	shutdownErr := s.httpSrv.Shutdown(drainCtx)
	err := s.sched.drain(drainCtx)
	s.reg.Close()
	if err != nil {
		return fmt.Errorf("serve: drain incomplete: %w", err)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return shutdownErr
	}
	return nil
}

// Close kills the server abruptly: the listener and every open connection
// are torn down and in-flight engine work is revoked, with none of Run's
// graceful drain. This is the failure-injection hook the cluster harness
// uses to simulate a crashed node (a SIGKILL, not a SIGTERM); Run returns
// http.ErrServerClosed on the killed instance.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	// Drain with an already-expired context: admission closes immediately
	// and the scheduler-lifetime context is revoked so queued and in-flight
	// work aborts instead of finishing.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	s.sched.drain(done)
	s.reg.Close()
	return err
}

// reqContext derives the request's execution context: the client connection
// context bounded by the requested (clamped) or default timeout.
func (s *Server) reqContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(r.Context(), d)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		QueueDepth:    s.sched.depth(),
		QueueCapacity: s.cfg.QueueDepth,
		Partitions:    s.acc.NumPartitions(),
		Draining:      s.sched.draining(),
	}
	if hs := s.acc.HealthStats(); hs.Enabled {
		resp.HealthyPartitions = hs.Healthy
		resp.QuarantinedPartitions = hs.Quarantined
		resp.RecalibratingPartitions = hs.Recalibrating
		if hs.Degraded() {
			// Degraded, not dead: the shrunken pool keeps serving, so the
			// probe stays 200 and the body says what is out of service.
			resp.Status = "degraded"
		}
	}
	rs := s.reg.Stats()
	resp.RegistryModels = rs.Models
	resp.PrewarmPending = rs.PrewarmPending
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.acc.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	snap := accelSnapshot{
		Partitions:     st.Partitions,
		Workers:        st.Workers,
		EnergyPJ:       st.EnergyPJ,
		Programs:       st.Programs,
		Batches:        st.Batches,
		CacheHits:      st.Cache.Hits,
		CacheMisses:    st.Cache.Misses,
		CacheEvictions: st.Cache.Evictions,
		CacheEntries:   st.Cache.Entries,
		CacheCapacity:  st.Cache.Capacity,
		CachePinned:    st.Cache.Pinned,

		CompileHits:      st.Kernel.PlanReuses,
		CompileMisses:    st.Kernel.PlanCompiles,
		CompileEvictions: st.Kernel.PlanEvictions,
	}
	if fs := st.Fabric; fs != nil {
		snap.Fabric = &fabricSnapshot{
			Mode:            int(fs.Mode),
			ModeName:        fs.Mode.String(),
			ActiveLeases:    fs.ActiveLeases,
			FreePartitions:  fs.FreePartitions,
			ModeTransitions: fs.ModeTransitions,
			Granted:         fs.LeasesGranted,
			Preempted:       fs.LeasesPreempted,
			Reclaimed:       fs.LeasesReclaimed,
			PreemptedItems:  fs.PreemptedItems,
			StolenCycles:    fs.ComputeCyclesStolen,
			SLOViolations:   fs.ReclaimSLOViolations,
			LastReclaim:     fs.LastReclaimCycles,
			MaxReclaim:      fs.MaxReclaimCycles,
			InjectionRate:   fs.InjectionRate,
		}
	}
	rs := s.reg.Stats()
	snap.Registry = &registrySnapshot{
		Models:         rs.Models,
		Prewarmed:      rs.Prewarmed,
		PrewarmPending: rs.PrewarmPending,
		Registrations:  rs.Registrations,
		Removals:       rs.Removals,
	}
	if hs := st.Health; hs != nil && hs.Enabled {
		snap.Health = &healthSnapshot{
			Healthy:        hs.Healthy,
			Suspect:        hs.Suspect,
			Quarantined:    hs.Quarantined,
			Recalibrating:  hs.Recalibrating,
			InService:      hs.InService,
			Probes:         hs.Probes,
			Quarantines:    hs.Quarantines,
			Recalibrations: hs.Recalibrations,
			RecalFailures:  hs.RecalFailures,
			MaxProbeError:  hs.MaxProbeError,
			ProbeThreshold: hs.ProbeThreshold,
		}
	}
	s.met.write(w, s.sched.depth(), s.cfg.QueueDepth, snap)
}

func (s *Server) handleMatMul(w http.ResponseWriter, r *http.Request) {
	hstart := time.Now()
	tr := s.traceFor(r)
	var req MatMulRequest
	if !s.decode(w, r, &req) {
		return
	}
	key := ""
	if req.Model != "" {
		// By-reference: the registered weights stand in for M and the
		// model's precomputed fingerprint stands in for hashing them, so the
		// request coalesces with inline requests carrying the same bits.
		if req.M != nil {
			writeError(w, http.StatusBadRequest, "pass either model or inline m, not both")
			return
		}
		mdl := s.resolveModel(w, req.Model, registry.KindMatMul)
		if mdl == nil {
			return
		}
		if err := validateMatMulX(mdl.Spec.M, req.X); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		req.M = mdl.Spec.M
		key = mdl.Spec.RoutingKey()
		s.met.observeByRef("matmul", mdl.Prewarmed())
	} else {
		if err := validateMatMul(&req); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		key = WeightFingerprint(req.M)
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	if tr != nil {
		// Everything up to here — body read, JSON decode, validation, model
		// resolution — is the decode stage; the context carries the trace
		// down to the engine's lease-wait/compute hooks.
		tr.Add(trace.StageDecode, time.Since(hstart))
		ctx = trace.NewContext(ctx, tr)
	}

	now := time.Now()
	j := &job{
		ctx:      ctx,
		endpoint: "matmul",
		enq:      now,
		key:      key,
		m:        req.M,
		x:        req.X,
		done:     make(chan jobResult, 1),
		tr:       tr,
		mark:     now,
	}
	if !s.admit(w, j) {
		return
	}
	res, ok := s.await(w, r, ctx, j)
	if !ok {
		return
	}
	tr.SetBatched(res.batched)
	resp := MatMulResponse{
		C:         res.matmul,
		Batched:   res.batched,
		ElapsedMS: float64(time.Since(j.enq).Microseconds()) / 1000,
	}
	if tr != nil && wantTraceBody(r) {
		rec := tr.Record("matmul", http.StatusOK)
		resp.Trace = &rec
	}
	wstart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	tr.Add(trace.StageWrite, time.Since(wstart))
	s.finishTrace(tr, "matmul", http.StatusOK)
}

func (s *Server) handleConv2D(w http.ResponseWriter, r *http.Request) {
	hstart := time.Now()
	tr := s.traceFor(r)
	var req Conv2DRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Stride == 0 {
		req.Stride = 1
	}
	if req.Model != "" {
		// By-reference: the registered kernel stack replaces the inline one;
		// stride and pad stay per-request knobs. Substituting before the
		// shared validator keeps every input/kernel cross-check in force.
		if req.Kernels != nil {
			writeError(w, http.StatusBadRequest, "pass either model or inline kernels, not both")
			return
		}
		mdl := s.resolveModel(w, req.Model, registry.KindConv2D)
		if mdl == nil {
			return
		}
		req.Kernels = mdl.Spec.Kernels
		s.met.observeByRef("conv2d", mdl.Prewarmed())
	}
	if err := validateConv2D(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	if tr != nil {
		tr.Add(trace.StageDecode, time.Since(hstart))
		ctx = trace.NewContext(ctx, tr)
	}

	now := time.Now()
	j := &job{
		ctx:      ctx,
		endpoint: "conv2d",
		enq:      now,
		done:     make(chan jobResult, 1),
		tr:       tr,
		mark:     now,
		run: func(ctx context.Context) (any, error) {
			return s.acc.Conv2DCtx(ctx, req.Input, req.Kernels, req.Stride, req.Pad)
		},
	}
	if !s.admit(w, j) {
		return
	}
	res, ok := s.await(w, r, ctx, j)
	if !ok {
		return
	}
	tr.SetBatched(res.batched)
	resp := Conv2DResponse{
		Output:    res.direct.([][][]float64),
		ElapsedMS: float64(time.Since(j.enq).Microseconds()) / 1000,
	}
	if tr != nil && wantTraceBody(r) {
		rec := tr.Record("conv2d", http.StatusOK)
		resp.Trace = &rec
	}
	wstart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	tr.Add(trace.StageWrite, time.Since(wstart))
	s.finishTrace(tr, "conv2d", http.StatusOK)
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	hstart := time.Now()
	tr := s.traceFor(r)
	var req InferRequest
	if !s.decode(w, r, &req) {
		return
	}
	model, ok := s.models[req.Model]
	if !ok {
		// Not a built-in: try the registry ("name@version"; bare names
		// resolve @v1 there too, so registered models don't need the suffix
		// unless they shadow a built-in).
		mdl, err := s.reg.Resolve(req.Model)
		if err != nil {
			if errors.Is(err, registry.ErrUnknownModel) {
				writeErrorCode(w, http.StatusNotFound, CodeUnknownModel,
					fmt.Sprintf("unknown model %q; built-in: %v", req.Model, modelNames(s.models)))
				return
			}
			writeRegistryError(w, err)
			return
		}
		if mdl.Spec.Kind != registry.KindInfer {
			writeErrorCode(w, http.StatusBadRequest, CodeKindMismatch,
				"model "+mdl.Spec.Ref()+" is kind "+string(mdl.Spec.Kind)+", /v1/infer serves infer models")
			return
		}
		model = inferModelFromSpec(req.Model, mdl.Spec)
		s.met.observeByRef("infer", mdl.Prewarmed())
	}
	if err := model.checkInput(&req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	if tr != nil {
		tr.Add(trace.StageDecode, time.Since(hstart))
		ctx = trace.NewContext(ctx, tr)
	}

	now := time.Now()
	j := &job{
		ctx:      ctx,
		endpoint: "infer",
		enq:      now,
		done:     make(chan jobResult, 1),
		tr:       tr,
		mark:     now,
		run: func(ctx context.Context) (any, error) {
			return model.infer(ctx, s.acc, &req)
		},
	}
	if !s.admit(w, j) {
		return
	}
	res, ok2 := s.await(w, r, ctx, j)
	if !ok2 {
		return
	}
	tr.SetBatched(res.batched)
	logits := res.direct.([]float64)
	resp := InferResponse{
		Model:     req.Model,
		Logits:    logits,
		Class:     argmax(logits),
		ElapsedMS: float64(time.Since(j.enq).Microseconds()) / 1000,
	}
	if tr != nil && wantTraceBody(r) {
		rec := tr.Record("infer", http.StatusOK)
		resp.Trace = &rec
	}
	wstart := time.Now()
	writeJSON(w, http.StatusOK, resp)
	tr.Add(trace.StageWrite, time.Since(wstart))
	s.finishTrace(tr, "infer", http.StatusOK)
}

// decode reads and unmarshals the request body, answering 400/413 itself:
// every malformed body — empty, syntactically broken, wrongly typed,
// carrying trailing data — gets a structured {"error": ...} JSON response,
// never a bare 500, and oversized bodies are cut off at MaxBodyBytes with
// a 413 before they can balloon the heap.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		if errors.Is(err, io.EOF) {
			writeError(w, http.StatusBadRequest, "malformed JSON: empty request body")
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return false
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		writeError(w, http.StatusBadRequest, "malformed JSON: trailing data after request object")
		return false
	}
	return true
}

// retryAfterSecs is the Retry-After hint, rounded up to whole seconds with
// ceiling division — RetryAfter=1400ms must hint "2", not "1", or clients
// retry before the hinted interval has passed and hit the same backpressure
// again. Floors at 1 second (the header has no sub-second form).
func (s *Server) retryAfterSecs() string {
	secs := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// admit submits the job, answering 503 + Retry-After on backpressure.
func (s *Server) admit(w http.ResponseWriter, j *job) bool {
	if err := s.sched.submit(j); err != nil {
		s.met.observeRejected()
		s.met.observeAdmission(j.endpoint, outcomeRejected)
		w.Header().Set("Retry-After", s.retryAfterSecs())
		msg, code := "admission queue full, retry later", CodeQueueFull
		switch {
		case errors.Is(err, errDraining):
			msg, code = "server draining", CodeDraining
		case errors.Is(err, errNoCapacity):
			msg, code = "fabric reclaimed for network traffic, retry later", CodeNoCapacity
		}
		s.answer(w, j, http.StatusServiceUnavailable, code, msg)
		return false
	}
	return true
}

// await blocks until the job completes or its context expires, mapping
// outcomes onto status codes. Returns (result, true) only on success.
func (s *Server) await(w http.ResponseWriter, r *http.Request, ctx context.Context, j *job) (jobResult, bool) {
	var res jobResult
	select {
	case res = <-j.done:
	case <-ctx.Done():
		res = jobResult{err: ctx.Err()}
	}
	elapsed := time.Since(j.enq)
	switch {
	case res.err == nil:
		s.met.observeRequest(j.endpoint, elapsed, outcomeOK)
		return res, true
	case errors.Is(res.err, errNoCapacity):
		// The fabric was reclaimed while the job waited in the queue and the
		// executor shed it: same 503 backpressure as an admission-time shed.
		s.met.observeRequest(j.endpoint, elapsed, outcomeShed)
		w.Header().Set("Retry-After", s.retryAfterSecs())
		s.answer(w, j, http.StatusServiceUnavailable, CodeNoCapacity, "fabric reclaimed for network traffic, retry later")
	case errors.Is(res.err, context.DeadlineExceeded):
		s.met.observeRequest(j.endpoint, elapsed, outcomeDeadline)
		s.answer(w, j, http.StatusGatewayTimeout, CodeDeadline, "deadline exceeded")
	case errors.Is(res.err, context.Canceled):
		// Client cancellation, not a backend failure: booked under its own
		// outcome so it never pollutes the error counters and latency
		// histograms that feed timeout alerts.
		s.met.observeRequest(j.endpoint, elapsed, outcomeCancelled)
		if r.Context().Err() != nil {
			// The client connection is provably gone — nobody is left to
			// read a response, so skip the write entirely.
			s.finishTrace(j.tr, j.endpoint, StatusClientClosed)
			return res, false
		}
		// Cancelled with the client still connected (shutdown revoked
		// in-flight work): the 504 answer still says "cancelled", and the
		// router knows not to score it against this backend's health.
		s.answer(w, j, http.StatusGatewayTimeout, CodeCancelled, "request cancelled")
	case errors.Is(res.err, registry.ErrUnknownModel) || errors.Is(res.err, registry.ErrUnknownVersion):
		// A registry resolution error that surfaced from the executor (a
		// model removed while the job was queued) is still a structured 404
		// with its stable code, never a plain-text 500.
		s.met.observeRequest(j.endpoint, elapsed, outcomeError)
		writeRegistryError(w, res.err)
		s.finishTrace(j.tr, j.endpoint, http.StatusNotFound)
	default:
		s.met.observeRequest(j.endpoint, elapsed, outcomeError)
		s.answer(w, j, http.StatusInternalServerError, CodeInternal, res.err.Error())
	}
	return res, false
}

func writeJSON(w http.ResponseWriter, code int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(body); err != nil {
		log.Printf("serve: encoding response: %v", err)
	}
}

// writeError answers with the status's generic code; paths with a more
// specific condition use writeErrorCode directly.
func writeError(w http.ResponseWriter, status int, msg string) {
	code := CodeInternal
	switch status {
	case http.StatusBadRequest:
		code = CodeBadRequest
	case http.StatusRequestEntityTooLarge:
		code = CodeBodyTooLarge
	case http.StatusNotFound:
		code = CodeUnknownModel
	case http.StatusGatewayTimeout:
		code = CodeDeadline
	case http.StatusServiceUnavailable:
		code = CodeQueueFull
	}
	writeErrorCode(w, status, code, msg)
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Code: code})
}
