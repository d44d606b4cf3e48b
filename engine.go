package flumen

import (
	"container/list"
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"flumen/internal/fabric"
	"flumen/internal/mat"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/trace"
)

// This file is the accelerator's parallel compute engine. A padded
// matrix-matrix product decomposes into (block-row, block-col) work items;
// each item runs on a compute partition checked out of the pool (or leased
// from the fabric arbiter), fetches the block's SVD + Clements program from
// the weight-program cache (compiling it on a miss), and streams the
// right-hand-side columns through the program's compiled plan.
//
// Determinism guarantees:
//   - Work item idx = c*bi + r is assigned to worker idx % workers, and the
//     per-item partial results are merged serially in ascending idx order —
//     the exact accumulation order of the serial path. Combined with the
//     partition-independent BlockProgram propagation, noiseless outputs are
//     bitwise-identical for every worker count.
//   - Noise draws come from a per-item stream seeded by
//     (noiseSeed, call number, block row, block col), so EnableNoise(seed)
//     reproduces a run exactly regardless of scheduling.
//   - Energy/program/batch counters are accumulated per item and merged in
//     the same deterministic order into a mutex-guarded Meter, keeping the
//     totals exact under concurrency.

// DefaultProgramCacheSize is the default capacity (in compiled block
// programs) of the weight-program cache.
const DefaultProgramCacheSize = 256

// callConfig is the immutable per-call snapshot of the accelerator's
// tunable state, taken once so concurrent setter calls cannot tear a
// matMul in progress.
type callConfig struct {
	dac       optics.Quantizer
	adc       optics.Quantizer
	workers   int
	noiseOn   bool
	noiseSeed int64
	noiseCall int64
	lambdas   int
	cache     *programCache
	// fab is the fabric-arbitration snapshot: when non-nil, partitions are
	// granted by lease instead of the free pool.
	fab *fabric.Arbiter
	// faults and health are the device-health snapshot: per-partition
	// fault injectors corrupt each executed program, and the monitor (when
	// enabled) probes and quarantines between items (see health.go).
	faults []*photonic.FaultInjector
	health *healthMonitor
	// rec receives lease-wait and compute stage durations for a traced
	// request. Resolved once per call from the context (nil for untraced
	// calls, which is the only per-call cost of disabled tracing); the
	// workers' adds are atomic, so concurrent partition stripes may record
	// into one recorder.
	rec trace.Recorder
}

// injector returns the fault injector of partition idx, or nil.
func (cfg *callConfig) injector(idx int) *photonic.FaultInjector {
	if idx < 0 || idx >= len(cfg.faults) {
		return nil
	}
	return cfg.faults[idx]
}

// itemResult is one work item's contribution: the block's partial output
// columns (flat [v*n+i], already multiplied by each column's modulator
// scale) plus its energy and batch accounting.
type itemResult struct {
	out       []complex128
	programPJ float64
	vectorPJ  float64
	batches   int64
}

// workerScratch holds per-worker reusable buffers so the streaming loop
// performs no per-column allocation: one vector-major slab of nrhs×n
// states plus the per-column modulator scales, grown on demand and reused
// across the worker's items.
type workerScratch struct {
	batch  []complex128
	scales []float64
}

// ensureBatch returns batch and scale buffers sized for nrhs columns of
// width n, growing the backing arrays only when an item needs more.
func (s *workerScratch) ensureBatch(nrhs, n int) ([]complex128, []float64) {
	if cap(s.batch) < nrhs*n {
		s.batch = make([]complex128, nrhs*n)
	}
	if cap(s.scales) < nrhs {
		s.scales = make([]float64, nrhs)
	}
	return s.batch[:nrhs*n], s.scales[:nrhs]
}

// matMul computes the padded product pm·px across the partition pool and
// returns it as a padded complex matrix (callers truncate and project).
func (a *Accelerator) matMul(md, xd *mat.Dense) (*mat.Dense, error) {
	return a.matMulCtx(context.Background(), md, xd)
}

// matMulCtx is matMul with cooperative cancellation: the context is checked
// before each partition checkout and before every work item, so a cancelled
// call abandons its remaining items (and never starts any when the context
// arrives already cancelled). Partitions checked out before cancellation are
// always returned to the pool; a cancelled call contributes nothing to the
// energy meter.
func (a *Accelerator) matMulCtx(ctx context.Context, md, xd *mat.Dense) (*mat.Dense, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := a.blockSize
	pm := mat.PadTo(md, n)
	px := mat.PadTo(xd, n)
	bi := pm.Rows() / n
	bj := pm.Cols() / n
	nrhs := xd.Cols()

	a.mu.RLock()
	cfg := callConfig{
		dac:       a.quant,
		workers:   a.workers,
		noiseOn:   a.noiseOn,
		noiseSeed: a.noiseSeed,
		lambdas:   a.lambdas,
		cache:     a.cache,
		fab:       a.fab,
		faults:    a.faults,
		health:    a.health,
	}
	a.mu.RUnlock()
	// ADC full scale: a unit-spectral-norm block driven by |x|∞ ≤ 1 inputs
	// can emit field amplitudes up to √n. Built once per call — it is
	// invariant across blocks and columns.
	cfg.adc = optics.NewQuantizer(cfg.dac.Bits, math.Sqrt(float64(n)))
	if cfg.noiseOn {
		cfg.noiseCall = a.noiseCall.Add(1)
	}
	cfg.rec = trace.FromContext(ctx)

	items := bi * bj
	results := make([]itemResult, items)
	workers := min(cfg.workers, items)

	if workers <= 1 {
		if err := a.runItems(ctx, 0, 1, items, bi, nrhs, pm, px, &cfg, results); err != nil {
			return nil, err
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = a.runItems(ctx, g, workers, items, bi, nrhs, pm, px, &cfg, results)
			}(g)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}

	// Merge the per-item partials serially in the serial path's (c outer,
	// r inner) order so the float accumulation — and hence the result — is
	// bitwise-independent of the worker count.
	out := mat.New(pm.Rows(), px.Cols())
	var programs, batches int64
	var pj float64
	for c := 0; c < bj; c++ {
		for r := 0; r < bi; r++ {
			res := &results[c*bi+r]
			for v := 0; v < nrhs; v++ {
				for i := 0; i < n; i++ {
					out.Set(r*n+i, v, out.At(r*n+i, v)+res.out[v*n+i])
				}
			}
			programs++
			batches += res.batches
			pj += res.programPJ + res.vectorPJ
		}
	}
	a.meter.Add(pj, programs, batches)
	return out, nil
}

// partHandle is a checked-out partition: its index and the fabric lease
// that granted it. lease is nil when no arbiter is attached and the index
// came from the free pool; idx < 0 means no partition is held.
type partHandle struct {
	idx   int
	lease *fabric.Lease
}

var noPartition = partHandle{idx: -1}

// checkout acquires a partition — from the attached fabric arbiter when
// one is configured (blocking while the fabric carries traffic), otherwise
// from the pool — giving up as soon as the context is cancelled so callers
// never block on capacity drained by work they no longer want.
func (a *Accelerator) checkout(ctx context.Context, cfg *callConfig) (partHandle, error) {
	if cfg.rec != nil {
		// Lease-wait is the headline fabric-contention signal: time from
		// asking for a partition to holding one, whether granted by the
		// arbiter or the free pool.
		start := time.Now()
		defer func() { cfg.rec.Add(trace.StageLeaseWait, time.Since(start)) }()
	}
	if cfg.fab != nil {
		l, err := cfg.fab.Acquire(ctx)
		if err != nil {
			return noPartition, err
		}
		return partHandle{idx: l.Partition(), lease: l}, nil
	}
	// Fast path: a cancelled context always loses, even when a partition is
	// simultaneously available (select would pick at random).
	if err := ctx.Err(); err != nil {
		return noPartition, err
	}
	select {
	case idx := <-a.pool:
		return partHandle{idx: idx}, nil
	case <-ctx.Done():
		return noPartition, ctx.Err()
	}
}

// checkin returns a checked-out partition: leases are released to the
// arbiter, pool partitions go back on the channel — unless the health
// monitor quarantined the partition while it was held, in which case the
// monitor parks it and starts background recalibration.
func (a *Accelerator) checkin(h partHandle) {
	switch {
	case h.lease != nil:
		h.lease.Release()
	case h.idx >= 0:
		if hm := a.healthRef(); hm != nil && hm.parkIfQuarantined(a, h.idx) {
			return
		}
		a.pool <- h.idx
	}
}

// runItems executes one worker's stripe of work items (idx = g, g+workers,
// …), honouring lease preemption at block-item granularity: when the
// arbiter reclaims the fabric, the worker finishes nothing speculatively —
// the pending item is re-queued behind a fresh Acquire (which blocks until
// the fabric is handed back) and retried on whichever partition the new
// lease grants. Results stay bitwise-identical to the serial path because
// partial results merge serially in index order and a compiled block
// program propagates independently of the partition that runs it.
func (a *Accelerator) runItems(ctx context.Context, g, workers, items, bi, nrhs int, pm, px *mat.Dense, cfg *callConfig, results []itemResult) error {
	h := noPartition
	var err error
	defer func() { a.checkin(h) }()
	scratch := new(workerScratch)
	for idx := g; idx < items; idx += workers {
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if h.idx < 0 {
				// First item, or the previous partition was quarantined:
				// acquire lazily so a worker that just finished its stripe
				// never blocks on capacity it no longer needs.
				if h, err = a.checkout(ctx, cfg); err != nil {
					return err
				}
			}
			if h.lease == nil || !preempted(h.lease) {
				break
			}
			// Yield the fabric: count the pending item as re-queued, release
			// the lease, and park in Acquire until compute is allowed again.
			cfg.fab.NotePreemptedItems(1)
			a.checkin(h)
			h = noPartition
		}
		c, r := idx/bi, idx%bi
		var itemStart time.Time
		if cfg.rec != nil {
			itemStart = time.Now()
		}
		if err := a.computeItem(h.idx, scratch, pm, px, r, c, nrhs, cfg, &results[idx]); err != nil {
			return err
		}
		if cfg.rec != nil {
			cfg.rec.Add(trace.StageCompute, time.Since(itemStart))
		}
		if cfg.health != nil && cfg.health.afterItem(a, cfg, h) {
			// The partition we hold just failed its calibration probe and
			// was quarantined: hand it to the monitor and continue the
			// stripe on whichever healthy partition the next checkout
			// grants. Results are unaffected — the remaining items merge in
			// the same serial order regardless of which partition runs them.
			a.checkin(h)
			h = noPartition
			continue
		}
		if h.lease != nil {
			// Cooperative yield between leased items: a cycle-driven arbiter
			// running on the same CPU gets a chance to tick — and preempt —
			// while the lease is demonstrably held, instead of only ever
			// observing the zero-lease instants at stripe boundaries.
			runtime.Gosched()
		}
	}
	return nil
}

// preempted reports whether the lease's preemption channel has been closed.
func preempted(l *fabric.Lease) bool {
	select {
	case <-l.Preempted():
		return true
	default:
		return false
	}
}

// computeItem executes one (block-row r, block-col c) work item on
// partition pidx: fetch or compile the block's weight program and stream
// the nrhs right-hand-side columns through its compiled plan in λ batches.
// The program's SVD + Clements phases are what the partition would be
// programmed with; propagating the program itself gives the same
// E-fields without writing them onto the simulated mesh, and does not
// depend on the partition's wire offset — which is what makes parallel
// output bitwise-equal to serial.
func (a *Accelerator) computeItem(pidx int, s *workerScratch, pm, px *mat.Dense, r, c, nrhs int, cfg *callConfig, res *itemResult) error {
	n := a.blockSize
	blk := mat.Block(pm, n, r, c)
	bp, err := a.programFor(blk, cfg.cache)
	if err != nil {
		return err
	}
	// With a fault injector attached, the hardware realizes a corrupted
	// version of the program it was asked for: drift advances one step per
	// item and the columns propagate through the corrupted copy, which
	// compiles a plan of its own. The cached program is never touched.
	if inj := cfg.injector(pidx); inj != nil {
		inj.Step(1)
		bp = inj.Corrupt(bp)
	}
	res.programPJ = a.ep.FlumenProgramPJ(n)
	res.out = make([]complex128, nrhs*n)

	var noise *optics.NoiseModel
	if cfg.noiseOn {
		src := rand.NewSource(noiseStreamSeed(cfg.noiseSeed, cfg.noiseCall, r, c))
		nm := optics.DefaultNoise(1, rand.New(src))
		noise = &nm
	}
	a.streamBatched(bp, s, px, c, nrhs, cfg, noise, res)
	return nil
}

// streamBatched streams every right-hand-side column through the program's
// compiled plan in one pass: columns are gathered, scaled and DAC-quantized
// into a vector-major slab, propagated together by ForwardBatch (which
// loads each op's coefficients once per tile instead of once per column),
// then post-processed per column in ascending order, so noise draws, ADC
// quantization and λ-batch accounting follow column order.
func (a *Accelerator) streamBatched(bp *photonic.BlockProgram, s *workerScratch, px *mat.Dense, c, nrhs int, cfg *callConfig, noise *optics.NoiseModel, res *itemResult) {
	n := a.blockSize
	plan, compiledNow := bp.Plan()
	if compiledNow {
		a.kernelCompiles.Add(1)
	} else {
		a.kernelReuses.Add(1)
	}
	batch, scales := s.ensureBatch(nrhs, n)
	for v := 0; v < nrhs; v++ {
		seg := batch[v*n : (v+1)*n]
		for i := 0; i < n; i++ {
			seg[i] = px.At(c*n+i, v)
		}
		// Scale inputs into the modulator's full-scale range and quantize
		// at the DAC.
		scale := maxAbs(seg)
		scales[v] = scale
		if scale == 0 {
			// A dark column contributes nothing. Its slab still rides
			// through the plan (vectors are isolated, so even non-finite
			// values that zeroed the scale cannot leak into a neighbour),
			// but the output is discarded below.
			clear(seg)
			continue
		}
		for i := range seg {
			seg[i] /= complex(scale, 0)
		}
		cfg.dac.QuantizeComplexVec(seg)
	}
	plan.ForwardBatch(batch, nrhs)
	scaleC := complex(bp.Scale, 0)
	for v0 := 0; v0 < nrhs; v0 += cfg.lambdas {
		v1 := min(v0+cfg.lambdas, nrhs)
		for v := v0; v < v1; v++ {
			if scales[v] == 0 {
				continue
			}
			out := batch[v*n : (v+1)*n]
			if bp.Scale != 1 {
				for i := range out {
					out[i] *= scaleC
				}
			}
			if noise != nil {
				for i := range out {
					out[i] = complex(noise.Apply(real(out[i])), noise.Apply(imag(out[i])))
				}
			}
			// ADC quantization of detected outputs, in the normalized
			// (pre-spectral-rescale) domain.
			if bp.Scale != 0 {
				for i := range out {
					out[i] /= scaleC
				}
				cfg.adc.QuantizeComplexVec(out)
				for i := range out {
					out[i] *= scaleC
				}
			}
			dst := res.out[v*n : (v+1)*n]
			sc := complex(scales[v], 0)
			for i := 0; i < n; i++ {
				dst[i] = out[i] * sc
			}
		}
		res.batches++
		res.vectorPJ += a.ep.FlumenVectorsPJ(n, v1-v0)
	}
}

// programFor resolves the weight program for a padded block, through the
// cache when one is configured. Concurrent misses on the same key compile
// independently and the last put wins; compilation is deterministic, so
// every copy is interchangeable.
func (a *Accelerator) programFor(blk *mat.Dense, cache *programCache) (*photonic.BlockProgram, error) {
	if cache == nil {
		return photonic.CompileBlockScaled(blk)
	}
	key := blk.Fingerprint()
	if bp, ok := cache.get(key); ok {
		return bp, nil
	}
	bp, err := photonic.CompileBlockScaled(blk)
	if err != nil {
		return nil, err
	}
	cache.put(key, bp)
	return bp, nil
}

// noiseStreamSeed derives the RNG seed of one work item's noise stream
// from the run seed, the matMul call number, and the block coordinates
// (splitmix64-style mixing), decoupling noise reproducibility from worker
// scheduling.
func noiseStreamSeed(seed, call int64, r, c int) int64 {
	z := uint64(seed)
	z ^= 0x9e3779b97f4a7c15 * uint64(call+1)
	z ^= 0xbf58476d1ce4e5b9 * uint64(r+1)
	z ^= 0x94d049bb133111eb * uint64(c+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// CacheStats reports weight-program cache effectiveness.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Entries   int
	Capacity  int
	// Pinned counts entries currently held against eviction (the model
	// registry pins every block program of a registered model so prewarmed
	// weights survive arbitrary inline-request churn).
	Pinned int
}

// programCache is a mutex-guarded LRU of compiled block programs keyed by
// the exact bit-level fingerprint of the padded block, so a hit is
// guaranteed to return the identical program a fresh compile would.
type programCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	index     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
	// pinned counts entries currently held by at least one pin.
	pinned int
	// planEvictions counts evicted programs that carried a compiled
	// propagation plan — each one is plan-compilation work the engine will
	// redo if the weights return.
	planEvictions int64
}

type cacheEntry struct {
	key string
	bp  *photonic.BlockProgram
	// pins is a reference count of registry holds on this entry; a pinned
	// entry (pins > 0) is skipped by the LRU's eviction scan. Counting —
	// rather than a boolean — lets two registered models that share a block
	// (or one model that repeats a block) pin and unpin independently.
	pins int
}

func newProgramCache(capacity int) *programCache {
	return &programCache{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
}

func (pc *programCache) get(key string) (*photonic.BlockProgram, bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.index[key]; ok {
		pc.ll.MoveToFront(el)
		pc.hits++
		return el.Value.(*cacheEntry).bp, true
	}
	pc.misses++
	return nil, false
}

func (pc *programCache) put(key string, bp *photonic.BlockProgram) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.index[key]; ok {
		el.Value.(*cacheEntry).bp = bp
		pc.ll.MoveToFront(el)
		return
	}
	pc.index[key] = pc.ll.PushFront(&cacheEntry{key: key, bp: bp})
	for pc.ll.Len() > pc.capacity {
		// Scan from the LRU end for the first unpinned victim. Pinned
		// entries are immovable: when pins alone exceed capacity the cache
		// grows past it rather than evicting a registered model's program.
		el := pc.ll.Back()
		for el != nil && el.Value.(*cacheEntry).pins > 0 {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		pc.ll.Remove(el)
		ent := el.Value.(*cacheEntry)
		delete(pc.index, ent.key)
		pc.evictions++
		if ent.bp.HasCompiledPlan() {
			pc.planEvictions++
		}
	}
}

// pin marks key's entry as held against eviction (reference-counted).
// Returns false when the key is not resident — the caller compiles and puts
// first, so a false here means a concurrent eviction won the race.
func (pc *programCache) pin(key string) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.index[key]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	if ent.pins == 0 {
		pc.pinned++
	}
	ent.pins++
	return true
}

// unpin releases one pin hold on key; the entry becomes evictable again
// when its count reaches zero. Returns false for unknown or unpinned keys.
func (pc *programCache) unpin(key string) bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	el, ok := pc.index[key]
	if !ok {
		return false
	}
	ent := el.Value.(*cacheEntry)
	if ent.pins == 0 {
		return false
	}
	ent.pins--
	if ent.pins == 0 {
		pc.pinned--
	}
	return true
}

func (pc *programCache) planEvictionCount() int64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.planEvictions
}

func (pc *programCache) stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Entries:   pc.ll.Len(),
		Capacity:  pc.capacity,
		Pinned:    pc.pinned,
	}
}
