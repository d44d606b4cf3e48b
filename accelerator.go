package flumen

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"flumen/internal/energy"
	"flumen/internal/fabric"
	"flumen/internal/mat"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/trace"
	"flumen/internal/workload"
)

// Accelerator performs matrix algebra on a simulated Flumen photonic
// fabric. Matrices are zero-padded and split into BlockSize×BlockSize
// sub-blocks (Eq. 2-3); each block is scaled by its spectral norm,
// decomposed via SVD into the Clements phases a mesh partition is
// programmed with, and evaluated by exact complex E-field propagation
// through that program. Inputs and detected outputs pass through DAC/ADC
// quantizers, reproducing the paper's 8-bit equivalent analog precision.
//
// The fabric is carved into ports/blockSize independent compute
// partitions (the k/2 concurrent sub-meshes of Sec 3.2); MatMul/Conv2D
// dispatch block work items across them with a worker pool (see
// engine.go), and an LRU weight-program cache amortizes the SVD +
// Clements decomposition across calls that reuse the same weights.
type Accelerator struct {
	fabric *photonic.FlumenMesh
	// partitions is the number of compute partitions, fixed at
	// construction; a partition is identified by its index.
	partitions int
	// pool hands out exclusive use of one partition index per worker. It
	// is created once and kept across RoutePermutation drains so blocked
	// receivers never observe a stale channel.
	pool chan int

	// fab, when attached, replaces the pool as the sole grantor of
	// partitions: every work item then runs under a time-bounded compute
	// lease and yields at block-item granularity on preemption.
	fab *fabric.Arbiter

	// mu guards the call-time configuration (quant, workers, cache, noise
	// switches); a consistent snapshot is taken at the top of each matMul.
	mu        sync.RWMutex
	quant     optics.Quantizer
	workers   int
	cache     *programCache
	noiseOn   bool
	noiseSeed int64

	// Compiled-kernel counters (see KernelStats).
	kernelCompiles atomic.Int64
	kernelReuses   atomic.Int64

	// faults holds the per-partition runtime fault injectors (nil entries
	// = pristine device); replaced copy-on-write by InjectFaults so
	// call-time snapshots never see a torn slice.
	faults []*photonic.FaultInjector
	// health, when enabled, runs calibration probes between work items and
	// quarantines/recalibrates degraded partitions (see health.go).
	health *healthMonitor

	// noiseCall numbers the matMul calls of one noisy run so every call —
	// and every (block-row, block-col) item within it — draws from its own
	// deterministic noise stream regardless of worker scheduling.
	noiseCall atomic.Int64

	meter energy.Meter
	ep    energy.Params

	blockSize int
	lambdas   int
}

// NewAccelerator builds an accelerator over a `ports`-input Flumen mesh
// carved into ports/blockSize compute partitions. ports must be a positive
// multiple of 4; blockSize must be even, ≥2 and ≤ ports/2.
func NewAccelerator(ports, blockSize int) (*Accelerator, error) {
	if ports < 4 || ports%4 != 0 {
		return nil, fmt.Errorf("flumen: ports must be a positive multiple of 4, got %d", ports)
	}
	if blockSize < 2 || blockSize%2 != 0 || blockSize > ports/2 {
		return nil, fmt.Errorf("flumen: blockSize must be even, ≥2 and ≤ ports/2 = %d, got %d", ports/2, blockSize)
	}
	parts := ports / blockSize
	a := &Accelerator{
		fabric:     photonic.NewFlumenMesh(ports),
		partitions: parts,
		pool:       make(chan int, parts),
		faults:     make([]*photonic.FaultInjector, parts),
		quant:      optics.NewQuantizer(8, 1),
		ep:         energy.Default(),
		blockSize:  blockSize,
		lambdas:    8,
		cache:      newProgramCache(DefaultProgramCacheSize),
		workers:    parts,
	}
	a.fillPool()
	return a, nil
}

// fillPool puts every partition index on the free pool in ascending order.
func (a *Accelerator) fillPool() {
	for i := 0; i < a.partitions; i++ {
		a.pool <- i
	}
}

// SetPrecision configures the DAC/ADC bit depth (default 8).
func (a *Accelerator) SetPrecision(bits int) {
	a.mu.Lock()
	a.quant = optics.NewQuantizer(bits, 1)
	a.mu.Unlock()
}

// EnableNoise turns on analog detection noise (laser RIN plus a thermal
// floor, per the Table 2 receiver model) with the given seed; seedless
// deterministic runs are the default. Pass the same seed to reproduce a
// noisy run exactly — reproducibility holds for any worker count because
// each work item derives its own noise stream from (seed, call, block).
func (a *Accelerator) EnableNoise(seed int64) {
	a.mu.Lock()
	a.noiseOn = true
	a.noiseSeed = seed
	a.mu.Unlock()
	a.noiseCall.Store(0)
}

// DisableNoise restores deterministic detection.
func (a *Accelerator) DisableNoise() {
	a.mu.Lock()
	a.noiseOn = false
	a.mu.Unlock()
}

// Precision returns the converter bit depth.
func (a *Accelerator) Precision() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.quant.Bits
}

// BlockSize returns the compute partition size.
func (a *Accelerator) BlockSize() int { return a.blockSize }

// NumPartitions returns the number of independent compute partitions the
// fabric is carved into (ports/blockSize).
func (a *Accelerator) NumPartitions() int { return a.partitions }

// SetWorkers sets the number of concurrent workers used by MatMul/Conv2D,
// clamped to [1, NumPartitions]. The default is NumPartitions. Noiseless
// results are bitwise-identical for every worker count.
func (a *Accelerator) SetWorkers(n int) {
	a.mu.Lock()
	if n < 1 {
		n = 1
	}
	if n > a.partitions {
		n = a.partitions
	}
	a.workers = n
	a.mu.Unlock()
}

// Workers returns the configured worker count.
func (a *Accelerator) Workers() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.workers
}

// SetProgramCacheSize resizes the weight-program cache to hold up to n
// compiled block programs (default DefaultProgramCacheSize). n ≤ 0
// disables caching. Resizing clears the cache and its statistics.
func (a *Accelerator) SetProgramCacheSize(n int) {
	a.mu.Lock()
	if n <= 0 {
		a.cache = nil
	} else {
		a.cache = newProgramCache(n)
	}
	a.mu.Unlock()
}

// KernelStats reports compiled-kernel effectiveness.
type KernelStats struct {
	// PlanCompiles and PlanReuses count work items that compiled a new
	// propagation plan vs reused one cached on the block program — reuse
	// rides the weight-program cache, so a warm cache makes compilation
	// disappear from the steady state. An item on a fault-injected
	// partition runs a freshly corrupted program and always counts as a
	// compile.
	PlanCompiles int64
	PlanReuses   int64
	// PlanEvictions counts compiled plans dropped along with their program
	// by the weight-program cache's LRU.
	PlanEvictions int64
}

// ProgramCacheStats reports hit/miss/eviction counts and occupancy of the
// weight-program cache (zero value when caching is disabled).
func (a *Accelerator) ProgramCacheStats() CacheStats {
	a.mu.RLock()
	c := a.cache
	a.mu.RUnlock()
	if c == nil {
		return CacheStats{}
	}
	return c.stats()
}

// EnergyPJ returns the accumulated photonic compute energy (Fig. 12b
// model).
func (a *Accelerator) EnergyPJ() float64 { return a.meter.EnergyPJ() }

// PrewarmWeights compiles every block program of weight matrix m into the
// weight-program cache — including each program's compiled propagation
// plan — and pins the entries against LRU eviction. A later
// MatMul/MatVec/Conv2D against the same raw bits then pays neither the
// SVD + Clements decomposition nor the plan compile on its first request:
// this is the model registry's warm-start hook. Returns the number of
// block programs pinned (a matrix whose blocks repeat pins the shared
// entry once per occurrence; UnpinWeights is exactly symmetric). With
// caching disabled the call is a no-op.
//
// Prewarming performs no physical programming and meters no energy: it
// fills the compilation cache, it does not touch the fabric.
func (a *Accelerator) PrewarmWeights(m [][]float64) (int, error) {
	if len(m) == 0 || len(m[0]) == 0 {
		return 0, fmt.Errorf("flumen: empty matrix")
	}
	for i, row := range m {
		if len(row) != len(m[0]) {
			return 0, fmt.Errorf("flumen: ragged matrix: row %d has %d columns, row 0 has %d", i, len(row), len(m[0]))
		}
	}
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	if cache == nil {
		return 0, nil
	}
	n := a.blockSize
	pm := mat.PadTo(realDense(m), n)
	pinned := 0
	for c := 0; c < pm.Cols()/n; c++ {
		for r := 0; r < pm.Rows()/n; r++ {
			blk := mat.Block(pm, n, r, c)
			bp, err := a.programFor(blk, cache)
			if err != nil {
				return pinned, err
			}
			if _, compiledNow := bp.Plan(); compiledNow {
				a.kernelCompiles.Add(1)
			} else {
				a.kernelReuses.Add(1)
			}
			if cache.pin(blk.Fingerprint()) {
				pinned++
			}
		}
	}
	return pinned, nil
}

// UnpinWeights releases the pins PrewarmWeights took for matrix m (one per
// block occurrence), returning the entries to normal LRU lifetime. Reports
// how many pins were released; weights that were never prewarmed — or a
// cache that has since been resized, which drops all pins — release zero.
func (a *Accelerator) UnpinWeights(m [][]float64) int {
	if len(m) == 0 || len(m[0]) == 0 {
		return 0
	}
	for _, row := range m {
		if len(row) != len(m[0]) {
			return 0
		}
	}
	a.mu.RLock()
	cache := a.cache
	a.mu.RUnlock()
	if cache == nil {
		return 0
	}
	n := a.blockSize
	pm := mat.PadTo(realDense(m), n)
	released := 0
	for c := 0; c < pm.Cols()/n; c++ {
		for r := 0; r < pm.Rows()/n; r++ {
			if cache.unpin(mat.Block(pm, n, r, c).Fingerprint()) {
				released++
			}
		}
	}
	return released
}

// AttachFabric places the accelerator's partitions under the given
// arbiter's control: every MatMul/Conv2D work item then runs under a
// compute lease acquired from the arbiter, blocks while the fabric carries
// NoP traffic, and yields at block-item granularity when a lease is
// preempted. The arbiter must manage exactly NumPartitions partitions, and
// attachment requires all compute to be drained (the internal free pool is
// emptied so the arbiter becomes the sole grantor).
func (a *Accelerator) AttachFabric(arb *fabric.Arbiter) error {
	if arb == nil {
		return fmt.Errorf("flumen: nil fabric arbiter")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.fab != nil {
		return fmt.Errorf("flumen: fabric arbiter already attached")
	}
	if got := arb.Partitions(); got != a.partitions {
		return fmt.Errorf("flumen: arbiter manages %d partitions, accelerator has %d",
			got, a.partitions)
	}
	drained := make([]int, 0, a.partitions)
	for i := 0; i < a.partitions; i++ {
		select {
		case idx := <-a.pool:
			drained = append(drained, idx)
		default:
			for _, idx := range drained {
				a.pool <- idx
			}
			return fmt.Errorf("flumen: cannot attach fabric arbiter while compute is in flight")
		}
	}
	a.fab = arb
	return nil
}

// Fabric returns the attached fabric arbiter, or nil when the accelerator
// owns its partitions outright.
func (a *Accelerator) Fabric() *fabric.Arbiter {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.fab
}

// Stats is a read-only snapshot of the accelerator's observable state:
// fabric geometry, engine configuration, accumulated work counters, and
// weight-program cache effectiveness. It is safe to take concurrently with
// compute calls; counters reflect work merged so far.
type Stats struct {
	// Ports is the fabric port count; BlockSize the compute partition size.
	Ports     int
	BlockSize int
	// Partitions is the number of independent compute partitions; Workers
	// the configured dispatch concurrency.
	Partitions int
	Workers    int
	// Precision is the DAC/ADC bit depth.
	Precision int
	// EnergyPJ is the accumulated photonic compute energy; Programs and
	// Batches are the phase-programming and λ-batch counts.
	EnergyPJ float64
	Programs int64
	Batches  int64
	// Cache reports weight-program cache hit/miss/eviction counts (zero
	// value when caching is disabled).
	Cache CacheStats
	// Kernel reports compiled-kernel plan compile/reuse/eviction counts.
	Kernel KernelStats
	// Fabric is the attached dynamic-fabric arbiter's snapshot (nil when
	// the accelerator owns its partitions outright).
	Fabric *fabric.Stats
	// Health is the device-health subsystem snapshot (nil when the monitor
	// was never enabled).
	Health *HealthStats
}

// Stats returns a consistent read-only snapshot of geometry, configuration,
// work counters and cache statistics, so observers (e.g. a serving layer's
// /metrics endpoint) never reach into accelerator internals.
func (a *Accelerator) Stats() Stats {
	a.mu.RLock()
	s := Stats{
		Ports:      a.fabric.N(),
		BlockSize:  a.blockSize,
		Partitions: a.partitions,
		Workers:    a.workers,
		Precision:  a.quant.Bits,
	}
	c := a.cache
	fab := a.fab
	hm := a.health
	faults := a.faults
	a.mu.RUnlock()
	s.EnergyPJ = a.meter.EnergyPJ()
	s.Programs, s.Batches = a.meter.Counts()
	s.Kernel = KernelStats{
		PlanCompiles: a.kernelCompiles.Load(),
		PlanReuses:   a.kernelReuses.Load(),
	}
	if c != nil {
		s.Cache = c.stats()
		s.Kernel.PlanEvictions = c.planEvictionCount()
	}
	if fab != nil {
		fs := fab.Stats()
		s.Fabric = &fs
	}
	if hm != nil {
		hs := hm.snapshot(faults)
		s.Health = &hs
	}
	return s
}

// MatVec computes y = M·x photonically. M is row-major.
func (a *Accelerator) MatVec(m [][]float64, x []float64) ([]float64, error) {
	return a.MatVecCtx(context.Background(), m, x)
}

// MatVecCtx is MatVec with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned.
func (a *Accelerator) MatVecCtx(ctx context.Context, m [][]float64, x []float64) ([]float64, error) {
	if len(m) == 0 || len(m[0]) != len(x) {
		return nil, fmt.Errorf("flumen: MatVec dimension mismatch: %d×%d · %d", len(m), colsOf(m), len(x))
	}
	xd := mat.New(len(x), 1)
	for i, v := range x {
		xd.Set(i, 0, complex(v, 0))
	}
	out, err := a.matMulCtx(ctx, realDense(m), xd)
	if err != nil {
		return nil, err
	}
	y := make([]float64, len(m))
	for i := range y {
		y[i] = real(out.At(i, 0))
	}
	return y, nil
}

// MatMul computes C = M·X photonically, batching up to 8 columns of X per
// programmed block (the WDM-parallel MVMs of Sec 3.3.1). Block work items
// run across the partition pool; see engine.go for the dispatch and
// determinism story.
func (a *Accelerator) MatMul(m, x [][]float64) ([][]float64, error) {
	return a.MatMulCtx(context.Background(), m, x)
}

// MatMulCtx is MatMul with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned. A call that arrives with
// an already-cancelled context performs no work at all. Each right-hand-side
// column's result is independent of every other column, so concatenating
// the column sets of several calls that share M into one MatMulCtx yields
// bitwise-identical per-column results (the property the serving layer's
// batcher relies on).
func (a *Accelerator) MatMulCtx(ctx context.Context, m, x [][]float64) ([][]float64, error) {
	rows, inner := len(m), colsOf(m)
	if rows == 0 || inner == 0 {
		return nil, fmt.Errorf("flumen: empty matrix")
	}
	if len(x) != inner {
		return nil, fmt.Errorf("flumen: MatMul dimension mismatch: %d×%d · %d×%d", rows, inner, len(x), colsOf(x))
	}
	nrhs := colsOf(x)
	out, err := a.matMulCtx(ctx, realDense(m), realDense(x))
	if err != nil {
		return nil, err
	}
	// Truncate padding and convert to real.
	result := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		result[i] = make([]float64, nrhs)
		for j := 0; j < nrhs; j++ {
			result[i][j] = real(out.At(i, j))
		}
	}
	return result, nil
}

// Conv2D convolves a stack of input channels with a set of kernels on the
// photonic fabric, using the im2col lowering of Fig. 7: the kernel matrix
// is programmed into mesh partitions block by block and every receptive
// field streams through as an optical input vector. Because the kernel
// matrix is identical across calls, its block programs hit the weight
// cache and repeated convolutions skip the SVD + Clements decomposition.
//
// input is indexed [channel][y][x]; kernels is indexed
// [kernel][channel][ky][kx]. The result is indexed [kernel][y][x] with
// dimensions determined by stride and pad.
func (a *Accelerator) Conv2D(input [][][]float64, kernels [][][][]float64, stride, pad int) ([][][]float64, error) {
	return a.Conv2DCtx(context.Background(), input, kernels, stride, pad)
}

// Conv2DCtx is Conv2D with cooperative cancellation: when ctx is cancelled
// or its deadline passes, dispatch stops before the remaining block work
// items run and the context's error is returned.
func (a *Accelerator) Conv2DCtx(ctx context.Context, input [][][]float64, kernels [][][][]float64, stride, pad int) ([][][]float64, error) {
	if len(input) == 0 || len(input[0]) == 0 || len(input[0][0]) == 0 {
		return nil, fmt.Errorf("flumen: Conv2D empty input")
	}
	if len(kernels) == 0 || len(kernels[0]) != len(input) {
		return nil, fmt.Errorf("flumen: Conv2D kernel channel count %d does not match input %d",
			len(kernels[0]), len(input))
	}
	shape := workload.ConvShape{
		InW: len(input[0][0]), InH: len(input[0]), InC: len(input),
		KH: len(kernels[0][0]), KW: len(kernels[0][0][0]),
		NumKernels: len(kernels), Stride: stride, Pad: pad,
	}
	shape.Validate()
	// The CPU-side im2col lowering (volume packing, kernel ravel, patch
	// extraction) is real per-request work a latency breakdown must not
	// lose; for traced requests it books under the compute stage alongside
	// the photonic propagation it feeds.
	lowerStart := time.Now()
	vol := workload.NewVolume(shape.InW, shape.InH, shape.InC)
	for c := range input {
		for y := range input[c] {
			for x := range input[c][y] {
				vol.Set(x, y, c, input[c][y][x])
			}
		}
	}
	ravel := make([][]float64, shape.NumKernels)
	for k := range kernels {
		ravel[k] = make([]float64, 0, shape.PatchLen())
		for c := 0; c < shape.InC; c++ {
			for ky := 0; ky < shape.KH; ky++ {
				for kx := 0; kx < shape.KW; kx++ {
					ravel[k] = append(ravel[k], kernels[k][c][ky][kx])
				}
			}
		}
	}
	km := workload.KernelMatrix(shape, ravel)
	cols := workload.Im2Col(shape, vol)
	if rec := trace.FromContext(ctx); rec != nil {
		rec.Add(trace.StageCompute, time.Since(lowerStart))
	}
	prod, err := a.matMulCtx(ctx, km, cols)
	if err != nil {
		return nil, err
	}
	out := make([][][]float64, shape.NumKernels)
	for k := range out {
		out[k] = make([][]float64, shape.OutH())
		for y := range out[k] {
			out[k][y] = make([]float64, shape.OutW())
			for x := range out[k][y] {
				out[k][y][x] = real(prod.At(k, y*shape.OutW()+x))
			}
		}
	}
	return out, nil
}

// RoutePermutation demonstrates the fabric's communication mode: it routes
// input port i to output perm[i] and returns the per-port MZI path counts
// whose spread the attenuator column equalizes. It waits for all in-flight
// compute work to drain before reconfiguring the fabric.
func (a *Accelerator) RoutePermutation(perm []int) ([]int, error) {
	if len(perm) != a.fabric.N() {
		return nil, fmt.Errorf("flumen: permutation length %d, fabric has %d ports", len(perm), a.fabric.N())
	}
	if a.Fabric() != nil {
		// With an arbiter attached the pool is permanently drained and the
		// NoP side owns traffic-mode routing; re-routing here would race the
		// arbiter's grants.
		return nil, fmt.Errorf("flumen: cannot re-route fabric while a dynamic fabric arbiter is attached")
	}
	if a.healthRef() != nil {
		// Quarantined partitions are parked outside the pool, so the full
		// drain below could block forever.
		return nil, fmt.Errorf("flumen: cannot re-route fabric while the health monitor is enabled")
	}
	// Take every partition out of the pool so no worker is mid-flight while
	// the fabric is re-routed, then hand them back in ascending order.
	for range a.partitions {
		<-a.pool
	}
	a.fabric.RoutePermutation(perm)
	counts := make([]int, len(perm))
	for src := range perm {
		counts[src], _ = a.fabric.PathMZICount(src)
	}
	a.fillPool()
	return counts, nil
}

// Ports returns the fabric port count.
func (a *Accelerator) Ports() int { return a.fabric.N() }

func colsOf(m [][]float64) int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

func realDense(m [][]float64) *mat.Dense {
	d := mat.New(len(m), len(m[0]))
	for i, row := range m {
		if len(row) != len(m[0]) {
			panic("flumen: ragged matrix")
		}
		for j, v := range row {
			d.Set(i, j, complex(v, 0))
		}
	}
	return d
}

func maxAbs(xs []complex128) float64 {
	var m float64
	for _, x := range xs {
		if a := math.Abs(real(x)); a > m {
			m = a
		}
		if a := math.Abs(imag(x)); a > m {
			m = a
		}
	}
	return m
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
