package flumen

import (
	"fmt"
	"math/rand"
	"sync"

	"flumen/internal/mat"
	"flumen/internal/photonic"
)

// Device-health subsystem. Real MZI meshes drift (thermal crosstalk,
// aging) and lose devices, and accuracy collapses silently past modest
// phase error. The health monitor closes the loop at runtime:
//
//	healthy → suspect → quarantined → recalibrating → healthy
//
// Between work items each worker runs a cheap calibration probe on the
// partition it holds — evaluate a known compiled program against its
// golden matrix — and partitions whose probe error exceeds the threshold
// for QuarantineAfter consecutive probes are quarantined: removed from the
// dispatch pool (or marked unfit with the fabric arbiter), so MatMul and
// Conv2D continue on the healthy remainder bitwise-identically to a
// shrunken pool. A background goroutine then recalibrates the partition
// in situ (FaultInjector.Recalibrate, the runtime counterpart of
// Mesh.InSituOptimize) and returns it to service, or leaves it quarantined
// after MaxRecalAttempts failed attempts. MinHealthy partitions are always
// kept in service so the accelerator degrades rather than dies.

// HealthState is one partition's position in the health state machine.
type HealthState int

const (
	// HealthHealthy: recent probes within threshold; partition in service.
	HealthHealthy HealthState = iota
	// HealthSuspect: last probe failed but not enough consecutive failures
	// (or the MinHealthy floor blocks quarantine); still in service.
	HealthSuspect
	// HealthQuarantined: out of the dispatch pool awaiting (or having
	// exhausted) recalibration.
	HealthQuarantined
	// HealthRecalibrating: background in-situ tuning in progress.
	HealthRecalibrating
)

// String names the state for metrics labels and logs.
func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthSuspect:
		return "suspect"
	case HealthQuarantined:
		return "quarantined"
	case HealthRecalibrating:
		return "recalibrating"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthConfig tunes the monitor. The zero value selects the defaults.
type HealthConfig struct {
	// ProbeInterval is the number of work items a partition executes
	// between calibration probes (default 32).
	ProbeInterval int
	// SuspectThreshold is the probe max-element error (normalized,
	// unit-spectral-norm domain) above which a probe fails (default 0.02).
	SuspectThreshold float64
	// QuarantineAfter is the number of consecutive failing probes that
	// triggers quarantine (default 2).
	QuarantineAfter int
	// RecalPasses is the number of coordinate-descent sweeps per
	// recalibration attempt (default 6).
	RecalPasses int
	// MaxRecalAttempts bounds recalibration attempts before a partition is
	// left quarantined for good (default 3).
	MaxRecalAttempts int
	// MinHealthy is the number of partitions always kept in service;
	// quarantine requests that would drop below it are refused and the
	// partition stays suspect (default 1).
	MinHealthy int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 32
	}
	if c.SuspectThreshold <= 0 {
		c.SuspectThreshold = 0.02
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 2
	}
	if c.RecalPasses <= 0 {
		c.RecalPasses = 6
	}
	if c.MaxRecalAttempts <= 0 {
		c.MaxRecalAttempts = 3
	}
	if c.MinHealthy <= 0 {
		c.MinHealthy = 1
	}
	return c
}

// PartitionHealth is one partition's health snapshot.
type PartitionHealth struct {
	State          HealthState
	Faulty         bool // a fault injector is attached
	LastProbeError float64
	Probes         int64
	Quarantines    int64
	Recalibrations int64
}

// HealthStats is a read-only snapshot of the health subsystem.
type HealthStats struct {
	Enabled bool
	// Per-state partition counts; InService = Healthy + Suspect.
	Healthy, Suspect, Quarantined, Recalibrating int
	InService                                    int
	// Lifetime counters: probes run, quarantine entries, successful
	// recalibrations, and partitions abandoned after MaxRecalAttempts.
	Probes         int64
	Quarantines    int64
	Recalibrations int64
	RecalFailures  int64
	MaxProbeError  float64
	ProbeThreshold float64
	Partitions     []PartitionHealth
}

// Degraded reports whether any partition is currently out of service.
func (s HealthStats) Degraded() bool {
	return s.Enabled && (s.Quarantined > 0 || s.Recalibrating > 0)
}

// partitionHealth is the monitor's mutable per-partition record.
type partitionHealth struct {
	state       HealthState
	items       int // work items since the last probe
	badRun      int // consecutive failing probes
	lastErr     float64
	probes      int64
	quarantines int64
	recals      int64
	parked      bool // pool mode: partition held by the monitor
}

// healthMonitor drives probes, quarantine decisions and background
// recalibration. Probes run inline on the worker that holds the partition
// (so they never race compute); state transitions are serialized by mu.
type healthMonitor struct {
	cfg   HealthConfig
	probe *photonic.BlockProgram

	mu        sync.Mutex
	parts     []partitionHealth
	inService int

	probes        int64
	quarantines   int64
	recals        int64
	recalFailures int64

	// wg tracks background recalibration goroutines (tests drain it via
	// polling HealthStats; nothing blocks on it at shutdown because every
	// goroutine terminates after at most MaxRecalAttempts bounded passes).
	wg sync.WaitGroup
}

// probeProgram compiles the monitor's known calibration block: a fixed
// seeded matrix, so every accelerator of the same block size probes
// against the same golden lattice.
func probeProgram(n int) (*photonic.BlockProgram, error) {
	rng := rand.New(rand.NewSource(0x666c756d)) // "flum"
	return photonic.CompileBlockScaled(mat.RandomReal(n, n, rng))
}

// EnableHealthMonitor turns on per-partition calibration probes,
// quarantine and background recalibration. It can be enabled at most once,
// in pool mode or after AttachFabric; RoutePermutation is refused while
// the monitor is active (quarantined partitions are parked outside the
// pool, so a full drain could never complete).
func (a *Accelerator) EnableHealthMonitor(cfg HealthConfig) error {
	bp, err := probeProgram(a.blockSize)
	if err != nil {
		return fmt.Errorf("flumen: health probe compilation: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.health != nil {
		return fmt.Errorf("flumen: health monitor already enabled")
	}
	a.health = &healthMonitor{
		cfg:       cfg.withDefaults(),
		probe:     bp,
		parts:     make([]partitionHealth, a.partitions),
		inService: a.partitions,
	}
	return nil
}

// InjectFaults attaches a runtime fault injector to partition part: from
// the next work item on, every program that partition executes is
// corrupted by the injector's drift/stuck/dead device state (and the
// injector's drift walk advances one step per item). Injecting replaces
// any previous injector on the partition. Works with or without the health
// monitor — an unmonitored accelerator simply computes wrong answers,
// which is the baseline the monitor is measured against.
func (a *Accelerator) InjectFaults(part int, fc photonic.FaultConfig) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if part < 0 || part >= a.partitions {
		return fmt.Errorf("flumen: partition %d out of range [0,%d)", part, a.partitions)
	}
	// Copy-on-write so concurrent calls snapshotting the slice never
	// observe a torn element.
	next := make([]*photonic.FaultInjector, a.partitions)
	copy(next, a.faults)
	next[part] = photonic.NewFaultInjector(a.blockSize, fc)
	a.faults = next
	return nil
}

// HealthStats returns the health subsystem snapshot (Enabled=false when
// the monitor was never enabled).
func (a *Accelerator) HealthStats() HealthStats {
	a.mu.RLock()
	hm := a.health
	faults := a.faults
	a.mu.RUnlock()
	if hm == nil {
		return HealthStats{}
	}
	return hm.snapshot(faults)
}

func (hm *healthMonitor) snapshot(faults []*photonic.FaultInjector) HealthStats {
	hm.mu.Lock()
	defer hm.mu.Unlock()
	st := HealthStats{
		Enabled:        true,
		InService:      hm.inService,
		Probes:         hm.probes,
		Quarantines:    hm.quarantines,
		Recalibrations: hm.recals,
		RecalFailures:  hm.recalFailures,
		ProbeThreshold: hm.cfg.SuspectThreshold,
		Partitions:     make([]PartitionHealth, len(hm.parts)),
	}
	for i := range hm.parts {
		ph := &hm.parts[i]
		st.Partitions[i] = PartitionHealth{
			State:          ph.state,
			Faulty:         i < len(faults) && faults[i] != nil,
			LastProbeError: ph.lastErr,
			Probes:         ph.probes,
			Quarantines:    ph.quarantines,
			Recalibrations: ph.recals,
		}
		switch ph.state {
		case HealthHealthy:
			st.Healthy++
		case HealthSuspect:
			st.Suspect++
		case HealthQuarantined:
			st.Quarantined++
		case HealthRecalibrating:
			st.Recalibrating++
		}
		if ph.lastErr > st.MaxProbeError {
			st.MaxProbeError = ph.lastErr
		}
	}
	return st
}

// afterItem is called by a worker after each work item, while it still
// holds the partition exclusively. It counts the item, runs a calibration
// probe every ProbeInterval items, and decides quarantine. It returns true
// when the held partition was quarantined and the worker must hand it back
// and continue on another.
func (hm *healthMonitor) afterItem(a *Accelerator, cfg *callConfig, h partHandle) bool {
	inj := cfg.injector(h.idx)
	if inj == nil {
		// No fault model on this partition: probes would measure exactly
		// zero, so skip the bookkeeping entirely.
		return false
	}
	hm.mu.Lock()
	ph := &hm.parts[h.idx]
	ph.items++
	if ph.items < hm.cfg.ProbeInterval {
		hm.mu.Unlock()
		return false
	}
	ph.items = 0
	hm.mu.Unlock()

	// The probe itself (lattice propagation) runs outside the monitor lock;
	// the partition is still exclusively ours.
	errv := inj.MatrixError(hm.probe)

	hm.mu.Lock()
	ph.probes++
	hm.probes++
	ph.lastErr = errv
	if errv <= hm.cfg.SuspectThreshold {
		if ph.state == HealthSuspect {
			ph.state = HealthHealthy
		}
		ph.badRun = 0
		hm.mu.Unlock()
		return false
	}
	ph.badRun++
	if ph.state == HealthHealthy {
		ph.state = HealthSuspect
	}
	if ph.badRun < hm.cfg.QuarantineAfter || hm.inService-1 < hm.cfg.MinHealthy {
		// Not enough consecutive failures, or the floor would be violated:
		// keep serving (degraded) rather than dying.
		hm.mu.Unlock()
		return false
	}
	ph.state = HealthQuarantined
	ph.badRun = 0
	ph.quarantines++
	hm.quarantines++
	hm.inService--
	fabricMode := cfg.fab != nil
	if fabricMode {
		hm.wg.Add(1)
	}
	hm.mu.Unlock()

	if fabricMode {
		// The arbiter stops granting the partition as soon as the worker
		// releases its lease; recalibration can start right away because it
		// only touches injector state, never in-flight optics.
		cfg.fab.SetQuarantine(h.idx, true)
		go hm.recalibrate(a, h.idx)
	}
	// Pool mode: the partition is parked (and recalibration spawned) by
	// checkin via parkIfQuarantined once the worker hands it back.
	return true
}

// parkIfQuarantined intercepts a pool-mode checkin: a quarantined
// partition is held by the monitor instead of returning to the pool, and
// background recalibration starts. Returns true when the partition was
// parked.
func (hm *healthMonitor) parkIfQuarantined(a *Accelerator, idx int) bool {
	hm.mu.Lock()
	ph := &hm.parts[idx]
	if ph.state != HealthQuarantined || ph.parked {
		hm.mu.Unlock()
		return false
	}
	ph.parked = true
	hm.wg.Add(1)
	hm.mu.Unlock()
	go hm.recalibrate(a, idx)
	return true
}

// recalibrate is the background recovery path: up to MaxRecalAttempts
// rounds of in-situ coordinate descent against the probe program, each
// followed by a verification probe. On success the partition returns to
// service (back to the pool, or quarantine lifted at the arbiter); on
// exhaustion it stays quarantined.
func (hm *healthMonitor) recalibrate(a *Accelerator, idx int) {
	defer hm.wg.Done()
	inj := a.injectorFor(idx)
	hm.mu.Lock()
	hm.parts[idx].state = HealthRecalibrating
	hm.mu.Unlock()
	if inj != nil {
		for attempt := 0; attempt < hm.cfg.MaxRecalAttempts; attempt++ {
			inj.Recalibrate(hm.probe, hm.cfg.RecalPasses)
			errv := inj.MatrixError(hm.probe)
			hm.mu.Lock()
			ph := &hm.parts[idx]
			ph.lastErr = errv
			if errv <= hm.cfg.SuspectThreshold {
				ph.state = HealthHealthy
				ph.badRun = 0
				ph.items = 0
				ph.recals++
				ph.parked = false
				hm.recals++
				hm.inService++
				hm.mu.Unlock()
				hm.returnToService(a, idx)
				return
			}
			hm.mu.Unlock()
		}
	}
	hm.mu.Lock()
	hm.parts[idx].state = HealthQuarantined
	hm.recalFailures++
	hm.mu.Unlock()
}

// returnToService puts a recovered partition back into dispatch: the
// arbiter lifts its quarantine in fabric mode, otherwise it rejoins the
// pool. A partition parked in pool mode blocks AttachFabric (the pool can
// never fully drain), so the mode cannot change while it recalibrates.
func (hm *healthMonitor) returnToService(a *Accelerator, idx int) {
	if fab := a.Fabric(); fab != nil {
		fab.SetQuarantine(idx, false)
		return
	}
	a.pool <- idx
}

// FaultInjector returns the injector InjectFaults attached to partition
// part, or nil. The injector is safe for concurrent use, so callers may
// drive it directly — e.g. SetDriftSigma(0) to model a transient fault
// source abating.
func (a *Accelerator) FaultInjector(part int) *photonic.FaultInjector {
	return a.injectorFor(part)
}

// injectorFor returns partition idx's fault injector, or nil.
func (a *Accelerator) injectorFor(idx int) *photonic.FaultInjector {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if idx < 0 || idx >= len(a.faults) {
		return nil
	}
	return a.faults[idx]
}

// healthRef returns the monitor, or nil when never enabled.
func (a *Accelerator) healthRef() *healthMonitor {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.health
}
