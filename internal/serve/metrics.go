package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"flumen/internal/trace"
)

// Final request outcomes, the label values of
// flumend_request_outcomes_total. "cancelled" (client went away) is
// deliberately separated from "deadline": a vanished client is not a
// backend failure, so it is excluded from flumend_errors_total and from the
// latency histograms that feed timeout alerts.
const (
	outcomeOK        = "ok"
	outcomeRejected  = "rejected"  // admission-time 503 (queue full, draining, fabric reclaimed)
	outcomeShed      = "shed"      // dequeued but shed: fabric reclaimed while the job was queued
	outcomeDeadline  = "deadline"  // 504, the request's deadline expired
	outcomeCancelled = "cancelled" // client cancelled / disconnected
	outcomeError     = "error"     // executor-surfaced errors (registry 404s, internal)
)

// metrics is a small self-contained registry exported in Prometheus text
// format at /metrics. Everything the exposition needs from the accelerator
// comes through the public Stats() snapshot; nothing reaches into engine
// internals.
type metrics struct {
	start time.Time

	mu sync.Mutex
	// Per-endpoint request/error/latency accounting.
	requests map[string]int64
	errors   map[string]int64
	hists    map[string]*histogram
	// outcomes counts every answered request by endpoint and final outcome
	// (admission-time rejections included, unlike requests_total).
	outcomes map[string]map[string]int64
	// stages holds one latency histogram per trace stage, fed by completed
	// traces (flumend_stage_seconds).
	stages [trace.NumStages]*histogram
	// Admission-control accounting.
	rejected  int64 // queue-full 503s
	cancelled int64 // requests abandoned before execution (deadline/client gone)
	// Batcher accounting.
	batchesExecuted int64 // engine calls issued by the scheduler
	batchedRequests int64 // requests served by those calls
	maxBatch        int64 // largest coalesced batch observed
	// execNanos accumulates wall time the executor spent inside engine
	// calls; against uptime it yields the fabric-busy fraction (the
	// executor drives all partitions while a call is in flight).
	execNanos int64
	// Model-registry accounting.
	byref         map[string]int64 // by-reference requests per endpoint
	prewarmHits   int64            // by-reference requests served by an already-prewarmed model
	registrations int64            // successful POST /v1/models calls (idempotent repeats included)
}

func newMetrics() *metrics {
	m := &metrics{
		start:    time.Now(),
		requests: make(map[string]int64),
		errors:   make(map[string]int64),
		hists:    make(map[string]*histogram),
		outcomes: make(map[string]map[string]int64),
		byref:    make(map[string]int64),
	}
	for i := range m.stages {
		m.stages[i] = newHistogram()
	}
	return m
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

type histogram struct {
	counts []int64 // one per bucket, plus +Inf at the end
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

func (m *metrics) observeRequest(endpoint string, d time.Duration, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[endpoint]++
	m.bumpOutcome(endpoint, outcome)
	if outcome == outcomeOK {
		// fall through to the histogram
	} else if outcome == outcomeCancelled {
		// The client left: its "latency" measures the client's patience, not
		// this server, so it stays out of both the error counter and the
		// latency histogram that feed timeout alerts.
		return
	} else {
		m.errors[endpoint]++
	}
	h := m.hists[endpoint]
	if h == nil {
		h = newHistogram()
		m.hists[endpoint] = h
	}
	h.observe(d.Seconds())
}

// observeAdmission books the outcome of a request rejected at admission,
// which never counts toward requests_total (that counter means "admitted").
func (m *metrics) observeAdmission(endpoint, outcome string) {
	m.mu.Lock()
	m.bumpOutcome(endpoint, outcome)
	m.mu.Unlock()
}

// bumpOutcome increments the per-endpoint outcome counter; callers hold mu.
func (m *metrics) bumpOutcome(endpoint, outcome string) {
	byOutcome := m.outcomes[endpoint]
	if byOutcome == nil {
		byOutcome = make(map[string]int64)
		m.outcomes[endpoint] = byOutcome
	}
	byOutcome[outcome]++
}

// observeStages folds one completed trace into the per-stage histograms.
// Stages the request never entered (zero duration) are skipped, so e.g.
// router-only stages never pollute flumend's exposition.
func (m *metrics) observeStages(rec trace.Record) {
	m.mu.Lock()
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		if d := rec.Duration(s); d > 0 {
			m.stages[s].observe(d.Seconds())
		}
	}
	m.mu.Unlock()
}

func (m *metrics) observeRejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

func (m *metrics) observeCancelled() {
	m.mu.Lock()
	m.cancelled++
	m.mu.Unlock()
}

func (m *metrics) observeByRef(endpoint string, prewarmed bool) {
	m.mu.Lock()
	m.byref[endpoint]++
	if prewarmed {
		m.prewarmHits++
	}
	m.mu.Unlock()
}

func (m *metrics) observeRegistration() {
	m.mu.Lock()
	m.registrations++
	m.mu.Unlock()
}

func (m *metrics) observeBatch(requests int, execTime time.Duration) {
	m.mu.Lock()
	m.batchesExecuted++
	m.batchedRequests += int64(requests)
	if int64(requests) > m.maxBatch {
		m.maxBatch = int64(requests)
	}
	m.execNanos += execTime.Nanoseconds()
	m.mu.Unlock()
}

// accelSnapshot is the subset of flumen.Stats the exposition consumes,
// decoupled so the metrics file does not import the root package.
type accelSnapshot struct {
	Partitions     int
	Workers        int
	EnergyPJ       float64
	Programs       int64
	Batches        int64
	CacheHits      int64
	CacheMisses    int64
	CacheEvictions int64
	CacheEntries   int
	CacheCapacity  int
	CachePinned    int

	// Compiled propagation-kernel plan accounting (Stats().Kernel).
	CompileHits      int64 // plans reused from a cached BlockProgram
	CompileMisses    int64 // plans compiled (first use of a program, or a fault-corrupted item)
	CompileEvictions int64 // compiled plans dropped with their evicted programs

	// Fabric is non-nil when a dynamic fabric arbiter is attached.
	Fabric *fabricSnapshot
	// Health is non-nil when the device-health monitor is enabled.
	Health *healthSnapshot
	// Registry is always non-nil (the model registry always runs, with or
	// without a persistent store).
	Registry *registrySnapshot
}

// registrySnapshot decouples registry.Stats from the exposition the same
// way accelSnapshot decouples flumen.Stats.
type registrySnapshot struct {
	Models         int
	Prewarmed      int
	PrewarmPending int
	Registrations  uint64
	Removals       uint64
}

// fabricSnapshot decouples fabric.Stats from the exposition the same way
// accelSnapshot decouples flumen.Stats.
type fabricSnapshot struct {
	Mode            int
	ModeName        string
	ActiveLeases    int
	FreePartitions  int
	ModeTransitions int64
	Granted         int64
	Preempted       int64
	Reclaimed       int64
	PreemptedItems  int64
	StolenCycles    int64
	SLOViolations   int64
	LastReclaim     int64
	MaxReclaim      int64
	InjectionRate   float64
}

// healthSnapshot decouples flumen.HealthStats from the exposition the same
// way accelSnapshot decouples flumen.Stats.
type healthSnapshot struct {
	Healthy        int
	Suspect        int
	Quarantined    int
	Recalibrating  int
	InService      int
	Probes         int64
	Quarantines    int64
	Recalibrations int64
	RecalFailures  int64
	MaxProbeError  float64
	ProbeThreshold float64
}

// write renders the exposition. queueDepth/queueCap are sampled at scrape
// time; acc is the accelerator snapshot.
func (m *metrics) write(w io.Writer, queueDepth, queueCap int, acc accelSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()

	up := time.Since(m.start).Seconds()
	fmt.Fprintf(w, "# HELP flumend_uptime_seconds Time since server start.\n")
	fmt.Fprintf(w, "# TYPE flumend_uptime_seconds gauge\n")
	fmt.Fprintf(w, "flumend_uptime_seconds %g\n", up)

	fmt.Fprintf(w, "# HELP flumend_requests_total Requests admitted per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_requests_total counter\n")
	for _, ep := range sortedKeys(m.requests) {
		fmt.Fprintf(w, "flumend_requests_total{endpoint=%q} %d\n", ep, m.requests[ep])
	}
	fmt.Fprintf(w, "# HELP flumend_errors_total Failed requests per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_errors_total counter\n")
	for _, ep := range sortedKeys(m.errors) {
		fmt.Fprintf(w, "flumend_errors_total{endpoint=%q} %d\n", ep, m.errors[ep])
	}

	fmt.Fprintf(w, "# HELP flumend_request_outcomes_total Final request outcomes per endpoint; cancelled means the client went away and is not an error.\n")
	fmt.Fprintf(w, "# TYPE flumend_request_outcomes_total counter\n")
	for _, ep := range sortedKeys(m.outcomes) {
		for _, oc := range sortedKeys(m.outcomes[ep]) {
			fmt.Fprintf(w, "flumend_request_outcomes_total{endpoint=%q,outcome=%q} %d\n", ep, oc, m.outcomes[ep][oc])
		}
	}

	fmt.Fprintf(w, "# HELP flumend_rejected_total Requests shed with 503 because the admission queue was full.\n")
	fmt.Fprintf(w, "# TYPE flumend_rejected_total counter\n")
	fmt.Fprintf(w, "flumend_rejected_total %d\n", m.rejected)
	fmt.Fprintf(w, "# HELP flumend_cancelled_total Queued requests abandoned before execution (deadline or client gone).\n")
	fmt.Fprintf(w, "# TYPE flumend_cancelled_total counter\n")
	fmt.Fprintf(w, "flumend_cancelled_total %d\n", m.cancelled)

	fmt.Fprintf(w, "# HELP flumend_queue_depth Requests currently waiting in the admission queue.\n")
	fmt.Fprintf(w, "# TYPE flumend_queue_depth gauge\n")
	fmt.Fprintf(w, "flumend_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "# HELP flumend_queue_capacity Admission queue capacity.\n")
	fmt.Fprintf(w, "# TYPE flumend_queue_capacity gauge\n")
	fmt.Fprintf(w, "flumend_queue_capacity %d\n", queueCap)

	fmt.Fprintf(w, "# HELP flumend_batches_executed_total Engine calls issued by the scheduler.\n")
	fmt.Fprintf(w, "# TYPE flumend_batches_executed_total counter\n")
	fmt.Fprintf(w, "flumend_batches_executed_total %d\n", m.batchesExecuted)
	fmt.Fprintf(w, "# HELP flumend_batched_requests_total Requests served by those engine calls (ratio to batches = mean coalescing).\n")
	fmt.Fprintf(w, "# TYPE flumend_batched_requests_total counter\n")
	fmt.Fprintf(w, "flumend_batched_requests_total %d\n", m.batchedRequests)
	fmt.Fprintf(w, "# HELP flumend_batch_size_max Largest coalesced batch observed.\n")
	fmt.Fprintf(w, "# TYPE flumend_batch_size_max gauge\n")
	fmt.Fprintf(w, "flumend_batch_size_max %d\n", m.maxBatch)

	busy := float64(m.execNanos) / 1e9
	util := 0.0
	if up > 0 {
		util = busy / up
	}
	fmt.Fprintf(w, "# HELP flumend_partitions Compute partitions carved from the fabric.\n")
	fmt.Fprintf(w, "# TYPE flumend_partitions gauge\n")
	fmt.Fprintf(w, "flumend_partitions %d\n", acc.Partitions)
	fmt.Fprintf(w, "# HELP flumend_partition_utilization Fraction of uptime the executor spent driving the fabric (all partitions engaged while an engine call is in flight).\n")
	fmt.Fprintf(w, "# TYPE flumend_partition_utilization gauge\n")
	fmt.Fprintf(w, "flumend_partition_utilization %g\n", util)

	fmt.Fprintf(w, "# HELP flumend_cache_hits_total Weight-program cache hits.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_hits_total counter\n")
	fmt.Fprintf(w, "flumend_cache_hits_total %d\n", acc.CacheHits)
	fmt.Fprintf(w, "# HELP flumend_cache_misses_total Weight-program cache misses.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_misses_total counter\n")
	fmt.Fprintf(w, "flumend_cache_misses_total %d\n", acc.CacheMisses)
	fmt.Fprintf(w, "# HELP flumend_cache_evictions_total Weight-program cache evictions.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_evictions_total counter\n")
	fmt.Fprintf(w, "flumend_cache_evictions_total %d\n", acc.CacheEvictions)
	fmt.Fprintf(w, "# HELP flumend_cache_entries Compiled programs resident in the cache.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_entries gauge\n")
	fmt.Fprintf(w, "flumend_cache_entries %d\n", acc.CacheEntries)
	fmt.Fprintf(w, "# HELP flumend_cache_capacity Weight-program cache capacity.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_capacity gauge\n")
	fmt.Fprintf(w, "flumend_cache_capacity %d\n", acc.CacheCapacity)
	fmt.Fprintf(w, "# HELP flumend_cache_pinned Cache entries pinned against eviction by registered models.\n")
	fmt.Fprintf(w, "# TYPE flumend_cache_pinned gauge\n")
	fmt.Fprintf(w, "flumend_cache_pinned %d\n", acc.CachePinned)

	fmt.Fprintf(w, "# HELP flumend_engine_compile_hits_total Compiled propagation plans reused from cached weight programs.\n")
	fmt.Fprintf(w, "# TYPE flumend_engine_compile_hits_total counter\n")
	fmt.Fprintf(w, "flumend_engine_compile_hits_total %d\n", acc.CompileHits)
	fmt.Fprintf(w, "# HELP flumend_engine_compile_misses_total Propagation-plan compilations (first use of a weight program, or an item on a fault-injected partition).\n")
	fmt.Fprintf(w, "# TYPE flumend_engine_compile_misses_total counter\n")
	fmt.Fprintf(w, "flumend_engine_compile_misses_total %d\n", acc.CompileMisses)
	fmt.Fprintf(w, "# HELP flumend_engine_compile_evictions_total Compiled plans dropped from the cache with their evicted weight programs.\n")
	fmt.Fprintf(w, "# TYPE flumend_engine_compile_evictions_total counter\n")
	fmt.Fprintf(w, "flumend_engine_compile_evictions_total %d\n", acc.CompileEvictions)

	fmt.Fprintf(w, "# HELP flumend_energy_picojoules_total Accumulated photonic compute energy (Fig. 12b model).\n")
	fmt.Fprintf(w, "# TYPE flumend_energy_picojoules_total counter\n")
	fmt.Fprintf(w, "flumend_energy_picojoules_total %g\n", acc.EnergyPJ)
	fmt.Fprintf(w, "# HELP flumend_programs_total Phase-programming events.\n")
	fmt.Fprintf(w, "# TYPE flumend_programs_total counter\n")
	fmt.Fprintf(w, "flumend_programs_total %d\n", acc.Programs)
	fmt.Fprintf(w, "# HELP flumend_lambda_batches_total WDM λ-batches streamed.\n")
	fmt.Fprintf(w, "# TYPE flumend_lambda_batches_total counter\n")
	fmt.Fprintf(w, "flumend_lambda_batches_total %d\n", acc.Batches)

	if f := acc.Fabric; f != nil {
		fmt.Fprintf(w, "# HELP flumend_fabric_mode Arbitration mode (0=idle 1=compute-leased 2=reclaiming 3=traffic).\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_mode gauge\n")
		fmt.Fprintf(w, "flumend_fabric_mode{mode=%q} %d\n", f.ModeName, f.Mode)
		fmt.Fprintf(w, "# HELP flumend_fabric_active_leases Partitions currently under compute lease.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_active_leases gauge\n")
		fmt.Fprintf(w, "flumend_fabric_active_leases %d\n", f.ActiveLeases)
		fmt.Fprintf(w, "# HELP flumend_fabric_free_partitions Partitions available for lease or traffic.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_free_partitions gauge\n")
		fmt.Fprintf(w, "flumend_fabric_free_partitions %d\n", f.FreePartitions)
		fmt.Fprintf(w, "# HELP flumend_fabric_mode_transitions_total Arbiter state-machine transitions.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_mode_transitions_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_mode_transitions_total %d\n", f.ModeTransitions)
		fmt.Fprintf(w, "# HELP flumend_fabric_leases_granted_total Compute leases granted.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_leases_granted_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_leases_granted_total %d\n", f.Granted)
		fmt.Fprintf(w, "# HELP flumend_fabric_leases_preempted_total Leases signalled for preemption by traffic demand.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_leases_preempted_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_leases_preempted_total %d\n", f.Preempted)
		fmt.Fprintf(w, "# HELP flumend_fabric_partitions_reclaimed_total Preempted leases returned to traffic.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_partitions_reclaimed_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_partitions_reclaimed_total %d\n", f.Reclaimed)
		fmt.Fprintf(w, "# HELP flumend_fabric_preempted_items_total Compute work items re-queued because their lease was preempted.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_preempted_items_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_preempted_items_total %d\n", f.PreemptedItems)
		fmt.Fprintf(w, "# HELP flumend_fabric_compute_cycles_stolen_total Partition-cycles denied to compute while traffic owned the fabric.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_compute_cycles_stolen_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_compute_cycles_stolen_total %d\n", f.StolenCycles)
		fmt.Fprintf(w, "# HELP flumend_fabric_reclaim_slo_violations_total Reclaims that overran the cycle-budget SLO.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_reclaim_slo_violations_total counter\n")
		fmt.Fprintf(w, "flumend_fabric_reclaim_slo_violations_total %d\n", f.SLOViolations)
		fmt.Fprintf(w, "# HELP flumend_fabric_reclaim_cycles_last Duration of the most recent reclaim, in fabric cycles.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_reclaim_cycles_last gauge\n")
		fmt.Fprintf(w, "flumend_fabric_reclaim_cycles_last %d\n", f.LastReclaim)
		fmt.Fprintf(w, "# HELP flumend_fabric_reclaim_cycles_max Worst-case reclaim duration observed, in fabric cycles.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_reclaim_cycles_max gauge\n")
		fmt.Fprintf(w, "flumend_fabric_reclaim_cycles_max %d\n", f.MaxReclaim)
		fmt.Fprintf(w, "# HELP flumend_fabric_injection_rate Windowed NoP injection rate (packets/node/cycle) seen by the idle detector.\n")
		fmt.Fprintf(w, "# TYPE flumend_fabric_injection_rate gauge\n")
		fmt.Fprintf(w, "flumend_fabric_injection_rate %g\n", f.InjectionRate)
	}

	if h := acc.Health; h != nil {
		fmt.Fprintf(w, "# HELP flumend_health_partitions Partitions by health state.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_partitions gauge\n")
		fmt.Fprintf(w, "flumend_health_partitions{state=\"healthy\"} %d\n", h.Healthy)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"suspect\"} %d\n", h.Suspect)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"quarantined\"} %d\n", h.Quarantined)
		fmt.Fprintf(w, "flumend_health_partitions{state=\"recalibrating\"} %d\n", h.Recalibrating)
		fmt.Fprintf(w, "# HELP flumend_health_in_service Partitions currently accepting work (healthy + suspect).\n")
		fmt.Fprintf(w, "# TYPE flumend_health_in_service gauge\n")
		fmt.Fprintf(w, "flumend_health_in_service %d\n", h.InService)
		fmt.Fprintf(w, "# HELP flumend_health_probes_total Calibration probes run between work items.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probes_total counter\n")
		fmt.Fprintf(w, "flumend_health_probes_total %d\n", h.Probes)
		fmt.Fprintf(w, "# HELP flumend_health_quarantines_total Partitions pulled from service after repeated failing probes.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_quarantines_total counter\n")
		fmt.Fprintf(w, "flumend_health_quarantines_total %d\n", h.Quarantines)
		fmt.Fprintf(w, "# HELP flumend_health_recalibrations_total Quarantined partitions recalibrated and returned to service.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_recalibrations_total counter\n")
		fmt.Fprintf(w, "flumend_health_recalibrations_total %d\n", h.Recalibrations)
		fmt.Fprintf(w, "# HELP flumend_health_recal_failures_total Recalibration attempts abandoned after the retry budget.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_recal_failures_total counter\n")
		fmt.Fprintf(w, "flumend_health_recal_failures_total %d\n", h.RecalFailures)
		fmt.Fprintf(w, "# HELP flumend_health_probe_error_max Worst last-probe matrix error across partitions.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probe_error_max gauge\n")
		fmt.Fprintf(w, "flumend_health_probe_error_max %g\n", h.MaxProbeError)
		fmt.Fprintf(w, "# HELP flumend_health_probe_threshold Probe error threshold that marks a partition suspect.\n")
		fmt.Fprintf(w, "# TYPE flumend_health_probe_threshold gauge\n")
		fmt.Fprintf(w, "flumend_health_probe_threshold %g\n", h.ProbeThreshold)
	}

	if r := acc.Registry; r != nil {
		fmt.Fprintf(w, "# HELP flumend_registry_models Models currently registered.\n")
		fmt.Fprintf(w, "# TYPE flumend_registry_models gauge\n")
		fmt.Fprintf(w, "flumend_registry_models %d\n", r.Models)
		fmt.Fprintf(w, "# HELP flumend_registry_prewarmed_models Registered models whose block programs are compiled and pinned.\n")
		fmt.Fprintf(w, "# TYPE flumend_registry_prewarmed_models gauge\n")
		fmt.Fprintf(w, "flumend_registry_prewarmed_models %d\n", r.Prewarmed)
		fmt.Fprintf(w, "# HELP flumend_registry_prewarm_pending Models waiting in the background prewarm queue.\n")
		fmt.Fprintf(w, "# TYPE flumend_registry_prewarm_pending gauge\n")
		fmt.Fprintf(w, "flumend_registry_prewarm_pending %d\n", r.PrewarmPending)
		fmt.Fprintf(w, "# HELP flumend_registry_registrations_total Models registered over the registry's lifetime (reloads excluded).\n")
		fmt.Fprintf(w, "# TYPE flumend_registry_registrations_total counter\n")
		fmt.Fprintf(w, "flumend_registry_registrations_total %d\n", r.Registrations)
		fmt.Fprintf(w, "# HELP flumend_registry_removals_total Models unregistered.\n")
		fmt.Fprintf(w, "# TYPE flumend_registry_removals_total counter\n")
		fmt.Fprintf(w, "flumend_registry_removals_total %d\n", r.Removals)
	}
	fmt.Fprintf(w, "# HELP flumend_registry_byref_requests_total Compute requests that named a registered model instead of shipping weights.\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_byref_requests_total counter\n")
	for _, ep := range sortedKeys(m.byref) {
		fmt.Fprintf(w, "flumend_registry_byref_requests_total{endpoint=%q} %d\n", ep, m.byref[ep])
	}
	fmt.Fprintf(w, "# HELP flumend_registry_prewarm_hits_total By-reference requests whose model was already prewarmed (zero cold compiles on the request path).\n")
	fmt.Fprintf(w, "# TYPE flumend_registry_prewarm_hits_total counter\n")
	fmt.Fprintf(w, "flumend_registry_prewarm_hits_total %d\n", m.prewarmHits)

	fmt.Fprintf(w, "# HELP flumend_stage_seconds Per-stage time of traced requests; lease_wait and compute are engine sub-stages that overlap exec.\n")
	fmt.Fprintf(w, "# TYPE flumend_stage_seconds histogram\n")
	for s := trace.Stage(0); s < trace.NumStages; s++ {
		h := m.stages[s]
		if h.total == 0 {
			continue
		}
		name := s.String()
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "flumend_stage_seconds_bucket{stage=%q,le=%q} %d\n", name, fmt.Sprintf("%g", ub), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "flumend_stage_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "flumend_stage_seconds_sum{stage=%q} %g\n", name, h.sum)
		fmt.Fprintf(w, "flumend_stage_seconds_count{stage=%q} %d\n", name, h.total)
	}

	fmt.Fprintf(w, "# HELP flumend_request_duration_seconds Admission-to-completion latency per endpoint.\n")
	fmt.Fprintf(w, "# TYPE flumend_request_duration_seconds histogram\n")
	for _, ep := range sortedKeys(m.hists) {
		h := m.hists[ep]
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(w, "flumend_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n", ep, fmt.Sprintf("%g", ub), cum)
		}
		cum += h.counts[len(latencyBuckets)]
		fmt.Fprintf(w, "flumend_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "flumend_request_duration_seconds_sum{endpoint=%q} %g\n", ep, h.sum)
		fmt.Fprintf(w, "flumend_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
