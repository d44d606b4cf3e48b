package flumen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"flumen/internal/photonic"
)

// Engine output pins for the compiled propagation path. The golden table
// fixes the exact output bits and work counters of representative MatMul
// runs — clean, non-finite, noisy, drift-faulted and ragged — so any change
// to propagation, quantization, noise streams or fault corruption that
// moves a single bit fails here. The digests were recorded when the engine
// still carried an interpreted per-vector path next to the compiled one;
// both produced these exact bits.

func matsBitsEqual(t *testing.T, a, b [][]float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d length %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("%s: (%d,%d) = %v vs %v (bits differ)", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// goldenCase drives one accelerator through a fixed sequence of MatMuls.
type goldenCase struct {
	name  string
	setup func(t *testing.T, a *Accelerator)
	// calls returns the (M, X) operand pairs, drawn from a seeded stream.
	calls func(rng *rand.Rand) [][2][][]float64
	seed  int64
	// Recorded digest of every output's Float64bits (little-endian, calls
	// in order, row-major) and the accelerator's counters afterwards.
	digest   string
	programs int64
	batches  int64
	energyPJ float64
}

func goldenShapes(dims ...[3]int) func(rng *rand.Rand) [][2][][]float64 {
	return func(rng *rand.Rand) [][2][][]float64 {
		var out [][2][][]float64
		for _, d := range dims {
			out = append(out, [2][][]float64{randMatrix(rng, d[0], d[1]), randMatrix(rng, d[1], d[2])})
		}
		return out
	}
}

var goldenCases = []goldenCase{
	{
		name:     "clean",
		seed:     5,
		calls:    goldenShapes([3]int{8, 8, 1}, [3]int{16, 16, 8}, [3]int{24, 24, 33}),
		digest:   "09d4581544764e1ffdc95a078da2487dd2c7e66284d5cc27523d0e77b45c5b9a",
		programs: 14,
		batches:  50,
		energyPJ: 2374.8835763218053,
	},
	{
		name: "non-finite",
		seed: 7,
		calls: func(rng *rand.Rand) [][2][][]float64 {
			m := randMatrix(rng, 16, 16)
			x := randMatrix(rng, 16, 6)
			x[3][0] = math.NaN()
			x[0][1] = math.Inf(1)
			x[9][1] = math.Inf(-1)
			x[2][2] = math.Copysign(0, -1)
			for i := range x { // column 3: all-zero (dark column)
				x[i][3] = 0
			}
			for i := range x { // column 4: all-NaN (maxAbs sees 0, also dark)
				x[i][4] = math.NaN()
			}
			return [][2][][]float64{{m, x}}
		},
		digest:   "f72fa17a9cce31e9fe06626f21c98dbf29f8599f4c30b884e3f3f83ef957bf29",
		programs: 4,
		batches:  4,
		energyPJ: 190.7337582779495,
	},
	{
		name:     "noise",
		seed:     13,
		setup:    func(t *testing.T, a *Accelerator) { a.EnableNoise(77) },
		calls:    goldenShapes([3]int{16, 16, 12}, [3]int{16, 16, 12}),
		digest:   "5d1cb8c63fcc3e8c18284178893e8e0793bfb19e6064c543ae28767685b78f5b",
		programs: 8,
		batches:  16,
		energyPJ: 714.602233111798,
	},
	{
		// One worker → one partition serves every item, so the drift walk
		// advances in item order and the run is reproducible.
		name: "drift-faults",
		seed: 17,
		setup: func(t *testing.T, a *Accelerator) {
			a.SetWorkers(1)
			for i := 0; i < a.NumPartitions(); i++ {
				if err := a.InjectFaults(i, photonic.FaultConfig{DriftSigma: 0.02, Seed: int64(50 + i)}); err != nil {
					t.Fatal(err)
				}
			}
		},
		calls:    goldenShapes([3]int{16, 16, 8}, [3]int{16, 16, 8}),
		digest:   "d3f2b79a36a156ee5765e60535e8ff137df9043844a3a9656b815c6b98a628c1",
		programs: 8,
		batches:  8,
		energyPJ: 492.512422074532,
	},
	{
		name:     "ragged",
		seed:     23,
		calls:    goldenShapes([3]int{13, 9, 5}, [3]int{24, 17, 33}, [3]int{3, 5, 2}),
		digest:   "dbde706bc9784fb565083b1974c023cc14f3bf96b228fdfdc441063c6a19a1e3",
		programs: 14,
		batches:  50,
		energyPJ: 2298.5402037777453,
	},
}

func runGolden(t *testing.T, gc goldenCase, a *Accelerator) (string, Stats) {
	t.Helper()
	if gc.setup != nil {
		gc.setup(t, a)
	}
	h := sha256.New()
	var buf [8]byte
	for _, mx := range gc.calls(rand.New(rand.NewSource(gc.seed))) {
		out, err := a.MatMul(mx[0], mx[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range out {
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), a.Stats()
}

func TestEngineGoldenBits(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			digest, st := runGolden(t, gc, newEngineAccel(t, 32, 8))
			if digest != gc.digest {
				t.Errorf("output digest %s, golden %s", digest, gc.digest)
			}
			if st.Programs != gc.programs || st.Batches != gc.batches || st.EnergyPJ != gc.energyPJ {
				t.Errorf("counters programs=%d batches=%d energy=%v pJ, golden %d/%d/%v pJ",
					st.Programs, st.Batches, st.EnergyPJ, gc.programs, gc.batches, gc.energyPJ)
			}
		})
	}
}

func TestCompiledKernelsSerialParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 24, 24)
	x := randMatrix(rng, 24, 16)
	a.SetWorkers(1)
	serial, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWorkers(a.NumPartitions())
	parallel, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	matsBitsEqual(t, serial, parallel, "serial vs parallel")
}

func TestKernelStatsPlanReuseAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	first := a.Stats().Kernel
	if first.PlanCompiles == 0 {
		t.Fatal("first call compiled no plans")
	}
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	second := a.Stats().Kernel
	if second.PlanCompiles != first.PlanCompiles {
		t.Fatalf("warm weights recompiled plans: %d → %d", first.PlanCompiles, second.PlanCompiles)
	}
	if second.PlanReuses <= first.PlanReuses {
		t.Fatal("warm weights did not reuse plans")
	}

	// A capacity-1 cache thrashes: each distinct block evicts the previous
	// program together with its compiled plan.
	a.SetProgramCacheSize(1)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	if ev := a.Stats().Kernel.PlanEvictions; ev == 0 {
		t.Fatal("thrashing cache evicted no compiled plans")
	}
}

// TestKernelStatsFaultedItemsCompile: an item on a fault-injected
// partition propagates a freshly corrupted copy of its program, so every
// such item compiles a plan of its own and none is reused.
func TestKernelStatsFaultedItemsCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	a := newEngineAccel(t, 32, 8)
	for i := 0; i < a.NumPartitions(); i++ {
		if err := a.InjectFaults(i, photonic.FaultConfig{DriftSigma: 0.02, Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)
	for i := 0; i < 2; i++ {
		if _, err := a.MatMul(m, x); err != nil {
			t.Fatal(err)
		}
	}
	st := a.Stats()
	if st.Kernel.PlanCompiles != st.Programs || st.Kernel.PlanReuses != 0 {
		t.Fatalf("faulted items: %+v over %d items, want one compile per item and no reuse", st.Kernel, st.Programs)
	}
}
