package flumen

import (
	"math/rand"
	"sync"
	"testing"
)

func randMatrix(rng *rand.Rand, r, c int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	return m
}

func newEngineAccel(t testing.TB, ports, block int) *Accelerator {
	t.Helper()
	a, err := NewAccelerator(ports, block)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEnginePartitionCount checks the fabric is carved into ports/blockSize
// partitions and that workers default to that count and clamp correctly.
func TestEnginePartitionCount(t *testing.T) {
	a := newEngineAccel(t, 32, 8)
	if got := a.NumPartitions(); got != 4 {
		t.Fatalf("NumPartitions = %d, want 4", got)
	}
	if got := a.Workers(); got != 4 {
		t.Fatalf("default Workers = %d, want 4", got)
	}
	a.SetWorkers(100)
	if got := a.Workers(); got != 4 {
		t.Fatalf("Workers after SetWorkers(100) = %d, want clamp to 4", got)
	}
	a.SetWorkers(-3)
	if got := a.Workers(); got != 1 {
		t.Fatalf("Workers after SetWorkers(-3) = %d, want clamp to 1", got)
	}
}

// TestEngineParallelMatchesSerialBitwise is the engine's core determinism
// guarantee: for noiseless runs the parallel result is bitwise-identical
// to the serial result, for every worker count, including the energy and
// counter totals.
func TestEngineParallelMatchesSerialBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randMatrix(rng, 20, 20)
	x := randMatrix(rng, 20, 5)

	serial := newEngineAccel(t, 32, 8)
	serial.SetWorkers(1)
	want, err := serial.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := serial.Stats()
	wantPrograms, wantBatches := wantStats.Programs, wantStats.Batches
	wantEnergy := serial.EnergyPJ()

	for _, workers := range []int{2, 3, 4} {
		par := newEngineAccel(t, 32, 8)
		par.SetWorkers(workers)
		got, err := par.MatMul(m, x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("workers=%d: element (%d,%d) = %v, serial %v (not bitwise-equal)",
						workers, i, j, got[i][j], want[i][j])
				}
			}
		}
		parStats := par.Stats()
		programs, batches := parStats.Programs, parStats.Batches
		if programs != wantPrograms || batches != wantBatches {
			t.Fatalf("workers=%d: counters (%d,%d), serial (%d,%d)",
				workers, programs, batches, wantPrograms, wantBatches)
		}
		if e := par.EnergyPJ(); e != wantEnergy {
			t.Fatalf("workers=%d: energy %v, serial %v", workers, e, wantEnergy)
		}
	}
}

// TestEngineNoiseDeterministicUnderPool verifies EnableNoise(seed)
// reproducibility is independent of worker scheduling: the same seed
// produces the exact same noisy output at any worker count, and a
// different seed produces a different one.
func TestEngineNoiseDeterministicUnderPool(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)

	run := func(workers int, seed int64) [][]float64 {
		a := newEngineAccel(t, 32, 8)
		a.SetWorkers(workers)
		a.EnableNoise(seed)
		out, err := a.MatMul(m, x)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	ref := run(1, 42)
	for _, workers := range []int{2, 4} {
		got := run(workers, 42)
		for i := range ref {
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("workers=%d seed=42: element (%d,%d) = %v, want %v",
						workers, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
	other := run(4, 43)
	same := true
	for i := range ref {
		for j := range ref[i] {
			if other[i][j] != ref[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical noisy output")
	}
}

// TestEngineProgramCacheHits verifies repeated MatMul with the same
// weights hits the cache (one miss per distinct block, then pure hits)
// and that cache hits return bitwise-identical results.
func TestEngineProgramCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 3)

	a := newEngineAccel(t, 16, 8)
	first, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	st := a.ProgramCacheStats()
	if st.Misses != 4 || st.Hits != 0 || st.Entries != 4 {
		t.Fatalf("after first call: %+v, want 4 misses, 0 hits, 4 entries", st)
	}
	second, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	st = a.ProgramCacheStats()
	if st.Misses != 4 || st.Hits != 4 {
		t.Fatalf("after second call: %+v, want 4 misses, 4 hits", st)
	}
	for i := range first {
		for j := range first[i] {
			if first[i][j] != second[i][j] {
				t.Fatalf("cached result differs at (%d,%d): %v vs %v", i, j, second[i][j], first[i][j])
			}
		}
	}
	// Counters must be unaffected by caching: programming is still charged
	// per item.
	aStats := a.Stats()
	programs, batches := aStats.Programs, aStats.Batches
	if programs != 8 || batches != 8 {
		t.Fatalf("counters (%d,%d), want (8,8)", programs, batches)
	}
}

// TestEngineProgramCacheEviction exercises the LRU policy with a
// capacity-1 cache over two distinct blocks.
func TestEngineProgramCacheEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randMatrix(rng, 16, 8) // two block rows: two distinct programs
	x := randMatrix(rng, 8, 2)

	a := newEngineAccel(t, 16, 8)
	a.SetWorkers(1)
	a.SetProgramCacheSize(1)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	st := a.ProgramCacheStats()
	if st.Capacity != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want capacity 1, entries 1", st)
	}
	if st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 eviction", st)
	}
	// Second call: block 0 was evicted by block 1, so with capacity 1 the
	// serial (c-major) walk misses both again.
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	st = a.ProgramCacheStats()
	if st.Misses != 4 || st.Evictions != 3 {
		t.Fatalf("stats after thrash %+v, want 4 misses, 3 evictions", st)
	}
}

// TestEngineCacheDisabledMatchesEnabled verifies the cache is purely an
// optimization: disabling it changes no output bit.
func TestEngineCacheDisabledMatchesEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)

	cached := newEngineAccel(t, 32, 8)
	a1, err := cached.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cached.MatMul(m, x) // warm: served from cache
	if err != nil {
		t.Fatal(err)
	}

	uncached := newEngineAccel(t, 32, 8)
	uncached.SetProgramCacheSize(0)
	b1, err := uncached.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if st := uncached.ProgramCacheStats(); st != (CacheStats{}) {
		t.Fatalf("disabled cache reported stats %+v", st)
	}

	for i := range a1 {
		for j := range a1[i] {
			if a1[i][j] != b1[i][j] || a2[i][j] != b1[i][j] {
				t.Fatalf("cache changed result at (%d,%d)", i, j)
			}
		}
	}
}

// TestEngineMatVecMatchesMatMulColumn checks the MatVec fast path (no
// 1-column transpose round-trip) agrees bitwise with the MatMul column.
func TestEngineMatVecMatchesMatMulColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	m := randMatrix(rng, 12, 10)
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	col := make([][]float64, len(x))
	for i := range col {
		col[i] = []float64{x[i]}
	}

	a := newEngineAccel(t, 16, 8)
	y, err := a.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.MatMul(m, col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != full[i][0] {
			t.Fatalf("MatVec[%d] = %v, MatMul column %v", i, y[i], full[i][0])
		}
	}
}

// TestEngineConcurrentMatMulStress hammers one Accelerator from many
// goroutines (run under -race in CI) and checks results stay correct and
// the energy/program/batch totals stay exact.
func TestEngineConcurrentMatMulStress(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)

	ref := newEngineAccel(t, 32, 8)
	want, err := ref.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	refStats := ref.Stats()
	refPrograms, refBatches := refStats.Programs, refStats.Batches
	refEnergy := ref.EnergyPJ()

	const calls = 16
	a := newEngineAccel(t, 32, 8)
	var wg sync.WaitGroup
	outs := make([][][]float64, calls)
	errs := make([]error, calls)
	for g := 0; g < calls; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], errs[g] = a.MatMul(m, x)
		}(g)
	}
	wg.Wait()
	for g := 0; g < calls; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i := range want {
			for j := range want[i] {
				if outs[g][i][j] != want[i][j] {
					t.Fatalf("call %d: element (%d,%d) diverged under concurrency", g, i, j)
				}
			}
		}
	}
	aStats := a.Stats()
	programs, batches := aStats.Programs, aStats.Batches
	if programs != calls*refPrograms || batches != calls*refBatches {
		t.Fatalf("counters (%d,%d), want (%d,%d)", programs, batches, calls*refPrograms, calls*refBatches)
	}
	// Every call contributes the identical per-call energy, so the mutexed
	// sum is exact regardless of interleaving.
	wantEnergy := 0.0
	for g := 0; g < calls; g++ {
		wantEnergy += refEnergy
	}
	if e := a.EnergyPJ(); e != wantEnergy {
		t.Fatalf("energy %v, want %v", e, wantEnergy)
	}
}

// TestEngineRoutePermutationRestoresPool checks compute still works (with
// all partitions) after the fabric is borrowed for communication routing.
func TestEngineRoutePermutationRestoresPool(t *testing.T) {
	a := newEngineAccel(t, 16, 4)
	perm := []int{5, 3, 1, 7, 0, 2, 4, 6, 9, 8, 11, 10, 13, 12, 15, 14}
	if _, err := a.RoutePermutation(perm); err != nil {
		t.Fatal(err)
	}
	if got := a.NumPartitions(); got != 4 {
		t.Fatalf("NumPartitions after routing = %d, want 4", got)
	}
	rng := rand.New(rand.NewSource(18))
	m := randMatrix(rng, 8, 8)
	x := randMatrix(rng, 8, 2)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatalf("MatMul after RoutePermutation: %v", err)
	}
}
