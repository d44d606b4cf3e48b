package main

// The -kernel mode benchmarks the compiled propagation kernels at the two
// layers they serve.
//
// Fabric level (headline): a blocked MatMul executed directly on a
// partition, comparing the pre-kernel device-by-device interpreter
// (FlumenMesh.ForwardInterp — per-slot MZI walk that re-derives each 2×2
// transfer on every vector) against Partition.MVMBatch over the compiled
// SoA plan. This is where the kernel removes work (the sin/cos + complex
// exponentials per device per vector), so the ≥2× warm acceptance gate
// applies to the 256×256 full-batch point here.
//
// Engine level (secondary): Accelerator.MatMul, whose only propagation
// path is the compiled plan. The program cache is sized to the sweep's
// block count so "warm" genuinely means warm, and the cold and warm
// outputs must agree bit for bit (the cache never changes results).
//
// Every point, at both levels, is timed cold (weight programs and plans
// recompiled inside the timed region) and warm. Results land in
// BENCH_kernel.json together with the CPU model, GOMAXPROCS and Go
// version they were measured with. With -smoke the sweep shrinks and only
// the bitwise-equality gates are enforced (no performance thresholds, so
// CI stays immune to machine speed).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"

	"flumen"
	"flumen/internal/mat"
	"flumen/internal/photonic"
)

type kernelPoint struct {
	Size           int     `json:"size"`
	NRHS           int     `json:"nrhs"`
	InterpColdMS   float64 `json:"interp_cold_ms"`
	InterpWarmMS   float64 `json:"interp_warm_ms"`
	CompiledColdMS float64 `json:"compiled_cold_ms"`
	CompiledWarmMS float64 `json:"compiled_warm_ms"`
	ColdSpeedup    float64 `json:"cold_speedup"`
	WarmSpeedup    float64 `json:"warm_speedup"`
	Bitwise        bool    `json:"bitwise_equal"`
}

// enginePoint is one engine-level (size, nrhs) MatMul timing.
type enginePoint struct {
	Size    int     `json:"size"`
	NRHS    int     `json:"nrhs"`
	ColdMS  float64 `json:"cold_ms"`
	WarmMS  float64 `json:"warm_ms"`
	Bitwise bool    `json:"cold_warm_bitwise_equal"`
}

type kernelReport struct {
	CPU        string             `json:"cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Smoke      bool               `json:"smoke"`
	Fabric     []kernelPoint      `json:"fabric_points"`
	Engine     []enginePoint      `json:"engine_points"`
	Kernel     flumen.KernelStats `json:"kernel_stats"`
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func bitsEqualMats(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

func bitsEqualCols(a, b [][]complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
				math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
				return false
			}
		}
	}
	return true
}

// fabricRig is a single compute partition on a fabric twice its width, the
// minimum legal layout (partition size ≤ N/2).
type fabricRig struct {
	f  *photonic.FlumenMesh
	p  *photonic.Partition
	bs int
}

func newFabricRig(bs int) (*fabricRig, error) {
	f := photonic.NewFlumenMesh(2 * bs)
	p, err := f.NewPartition(0, bs)
	if err != nil {
		return nil, err
	}
	return &fabricRig{f: f, p: p, bs: bs}, nil
}

// compileBlocks SVD-compiles every bs×bs block of the size×size weight
// matrix m (the artifacts a warm caller would hold in the program cache).
func (r *fabricRig) compileBlocks(m *mat.Dense) ([][]*photonic.BlockProgram, error) {
	nb := m.Rows() / r.bs
	progs := make([][]*photonic.BlockProgram, nb)
	for bi := range progs {
		progs[bi] = make([]*photonic.BlockProgram, nb)
		for bj := range progs[bi] {
			bp, err := photonic.CompileBlockScaled(mat.Block(m, r.bs, bi, bj))
			if err != nil {
				return nil, err
			}
			progs[bi][bj] = bp
		}
	}
	return progs, nil
}

// mvmInterp is the pre-kernel MVM: pack the input onto the partition wires,
// walk the fabric device by device (re-deriving every MZI transfer), and
// rescale. Bitwise-identical to Partition.MVM before plan compilation.
func (r *fabricRig) mvmInterp(in, full []complex128) []complex128 {
	clear(full)
	copy(full[r.p.Lo:], in)
	r.f.ForwardInterp(full)
	out := make([]complex128, r.p.Size)
	copy(out, full[r.p.Lo:r.p.Lo+r.p.Size])
	if r.p.Scale != 1 {
		s := complex(r.p.Scale, 0)
		for i := range out {
			out[i] *= s
		}
	}
	return out
}

// matMul runs the blocked size×size MatMul over every column of xcols
// (column-major right-hand sides) on the partition. compiled selects
// MVMBatch over the compiled plan versus the device-by-device interpreter;
// the block order and per-output accumulation order are identical in both,
// so the results are bitwise-comparable.
func (r *fabricRig) matMul(progs [][]*photonic.BlockProgram, xcols [][]complex128, compiled bool) ([][]complex128, error) {
	nb := len(progs)
	size := nb * r.bs
	out := make([][]complex128, len(xcols))
	for v := range out {
		out[v] = make([]complex128, size)
	}
	full := make([]complex128, 2*r.bs)
	xs := make([][]complex128, len(xcols))
	for br := 0; br < nb; br++ {
		for bc := 0; bc < nb; bc++ {
			if err := r.p.Apply(progs[br][bc]); err != nil {
				return nil, err
			}
			for v, col := range xcols {
				xs[v] = col[bc*r.bs : (bc+1)*r.bs]
			}
			if compiled {
				outs := r.p.MVMBatch(xs)
				for v := range outs {
					dst := out[v][br*r.bs:]
					for i, y := range outs[v] {
						dst[i] += y
					}
				}
			} else {
				for v := range xs {
					y := r.mvmInterp(xs[v], full)
					dst := out[v][br*r.bs:]
					for i := range y {
						dst[i] += y[i]
					}
				}
			}
		}
	}
	return out, nil
}

// fabricPoint times one (size, nrhs) blocked MatMul at the fabric level.
// Warm reuses precompiled block programs; cold recompiles them (SVD +
// Clements) inside the timed region. The compiled path additionally pays a
// fabric-plan compilation after every Apply in both modes — that is its
// steady-state cost.
func fabricPoint(rig *fabricRig, size, nrhs, reps int, rng *rand.Rand) (kernelPoint, error) {
	m := mat.RandomReal(size, size, rng)
	xcols := make([][]complex128, nrhs)
	for v := range xcols {
		col := make([]complex128, size)
		for i := range col {
			col[i] = complex(rng.Float64()*2-1, 0)
		}
		xcols[v] = col
	}
	progs, err := rig.compileBlocks(m)
	if err != nil {
		return kernelPoint{}, err
	}

	var iOut, cOut [][]complex128
	run := func(compiled bool, dst *[][]complex128) func() error {
		return func() error {
			out, err := rig.matMul(progs, xcols, compiled)
			*dst = out
			return err
		}
	}
	runCold := func(compiled bool, dst *[][]complex128) func() error {
		return func() error {
			fresh, err := rig.compileBlocks(m)
			if err != nil {
				return err
			}
			out, err := rig.matMul(fresh, xcols, compiled)
			*dst = out
			return err
		}
	}

	p := kernelPoint{Size: size, NRHS: nrhs}
	if p.InterpColdMS, err = timeIt(reps, runCold(false, &iOut)); err != nil {
		return p, err
	}
	if p.InterpWarmMS, err = timeIt(reps, run(false, &iOut)); err != nil {
		return p, err
	}
	if p.CompiledColdMS, err = timeIt(reps, runCold(true, &cOut)); err != nil {
		return p, err
	}
	if p.CompiledWarmMS, err = timeIt(reps, run(true, &cOut)); err != nil {
		return p, err
	}
	p.ColdSpeedup = p.InterpColdMS / p.CompiledColdMS
	p.WarmSpeedup = p.InterpWarmMS / p.CompiledWarmMS
	p.Bitwise = bitsEqualCols(iOut, cOut)
	return p, nil
}

// timeEngine times one (size, nrhs) Accelerator.MatMul cold and warm.
// cacheCap must cover the sweep's block count so the warm runs hit the
// program cache; cold clears it (dropping programs and their compiled
// plans) inside the timed region.
func timeEngine(acc *flumen.Accelerator, m, x [][]float64, reps, cacheCap int) (enginePoint, error) {
	p := enginePoint{Size: len(m), NRHS: len(x[0])}
	var cold, warm [][]float64
	matMul := func(out *[][]float64) error {
		var err error
		*out, err = acc.MatMul(m, x)
		return err
	}
	var err error
	if p.ColdMS, err = timeIt(reps, func() error {
		acc.SetProgramCacheSize(cacheCap) // clears: programs and plans recompile
		return matMul(&cold)
	}); err != nil {
		return p, err
	}
	if err = matMul(&warm); err != nil { // prime
		return p, err
	}
	if p.WarmMS, err = timeIt(reps, func() error { return matMul(&warm) }); err != nil {
		return p, err
	}
	p.Bitwise = bitsEqualMats(cold, warm)
	return p, nil
}

func runKernelBench(outPath string, smoke bool) error {
	const engineBlock = 8
	fabricBS := 32
	sizes := []int{64, 256}
	rhss := []int{8, 64, 256}
	reps := 3
	if smoke {
		fabricBS = 16
		sizes = []int{32}
		rhss = []int{4, 16}
		reps = 1
	}
	report := kernelReport{
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Smoke:      smoke,
	}

	rig, err := newFabricRig(fabricBS)
	if err != nil {
		return err
	}
	for _, size := range sizes {
		for _, nrhs := range rhss {
			rng := rand.New(rand.NewSource(int64(41*size + nrhs)))
			p, err := fabricPoint(rig, size, nrhs, reps, rng)
			if err != nil {
				return err
			}
			report.Fabric = append(report.Fabric, p)
			fmt.Printf("fabric MatMul %dx%d · nrhs=%d: interp %.2f/%.2f ms (cold/warm), compiled %.2f/%.2f ms, warm speedup %.2fx, bitwise-equal %v\n",
				size, size, nrhs, p.InterpColdMS, p.InterpWarmMS, p.CompiledColdMS, p.CompiledWarmMS, p.WarmSpeedup, p.Bitwise)
			if !p.Bitwise {
				return fmt.Errorf("kernel bench: fabric compiled %d×%d nrhs=%d output is not bitwise-equal to interpreted", size, size, nrhs)
			}
		}
	}

	acc, err := flumen.NewAccelerator(64, engineBlock)
	if err != nil {
		return err
	}
	for _, size := range sizes {
		for _, nrhs := range rhss {
			rng := rand.New(rand.NewSource(int64(43*size + nrhs)))
			m := randMatrix(rng, size, size)
			x := randMatrix(rng, size, nrhs)
			cacheCap := max(flumen.DefaultProgramCacheSize, (size/engineBlock)*(size/engineBlock))
			p, err := timeEngine(acc, m, x, reps, cacheCap)
			if err != nil {
				return err
			}
			report.Engine = append(report.Engine, p)
			fmt.Printf("engine MatMul %dx%d · nrhs=%d: %.2f/%.2f ms (cold/warm), cold≡warm bitwise %v\n",
				size, size, nrhs, p.ColdMS, p.WarmMS, p.Bitwise)
			if !p.Bitwise {
				return fmt.Errorf("kernel bench: engine %d×%d nrhs=%d cold and warm outputs differ", size, size, nrhs)
			}
		}
	}
	report.Kernel = acc.Stats().Kernel

	if !smoke {
		// Acceptance: the compiled kernel must deliver ≥2× over the
		// device-by-device interpreter on the warm 256×256 full-batch point
		// (the steady serving state).
		ok := false
		for _, p := range report.Fabric {
			if p.Size == 256 && p.NRHS == 256 && p.WarmSpeedup >= 2 {
				ok = true
			}
		}
		if !ok {
			return fmt.Errorf("kernel bench: warm fabric 256×256 speedup below the 2× acceptance threshold")
		}
	}

	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	return nil
}
