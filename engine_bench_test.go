package flumen

import (
	"math/rand"
	"testing"
)

// Engine-level kernel benchmarks: a 256×256 MatMul through the compiled
// SoA path at both block sizes. The program cache is sized to the sweep's
// block count so the steady state is genuinely warm (an evicted program
// drops its compiled plan with it). The fuller cold/warm × fabric/engine
// sweep lives in `flumen-bench -kernel`.

func benchEngineMatMul(b *testing.B, blockSize, size, nrhs int) {
	a, err := NewAccelerator(64, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	a.SetProgramCacheSize((size / blockSize) * (size / blockSize)) // hold every block of the sweep
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, size, size)
	x := randMatrix(rng, size, nrhs)
	if _, err := a.MatMul(m, x); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MatMul(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineKernelCompiled256(b *testing.B)    { benchEngineMatMul(b, 8, 256, 256) }
func BenchmarkEngineKernelCompiled256B32(b *testing.B) { benchEngineMatMul(b, 32, 256, 256) }
