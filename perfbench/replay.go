package main

import (
	"encoding/json"
	"fmt"
	"time"

	"flumen"
	"flumen/internal/loadgen"
	"flumen/internal/mat"
	"flumen/internal/photonic"
	"flumen/internal/serve"
)

// exactCounts replays the requests one at a time through a public
// Accelerator configured like one backend (registered weights pinned, one
// dispatch worker so cache order is fixed), and infer requests through
// serve.Reference. The engine counters it reports repeat exactly from run
// to run; infer requests are timed but not counted, because the Reference
// keeps its accelerator to itself.
func exactCounts(reqs []request, streams []*loadgen.Stream, scfg serve.Config, rep *report) error {
	acc, err := flumen.NewAccelerator(scfg.Ports, scfg.BlockSize)
	if err != nil {
		return err
	}
	acc.SetWorkers(1)
	if scfg.Precision > 0 {
		acc.SetPrecision(scfg.Precision)
	}
	if scfg.CacheSize != 0 {
		acc.SetProgramCacheSize(scfg.CacheSize)
	}
	for _, st := range streams {
		for _, spec := range st.ModelSpecs() {
			if _, err := acc.PrewarmWeights(spec.M); err != nil {
				return err
			}
		}
	}
	ref, err := serve.NewReference(scfg)
	if err != nil {
		return err
	}

	before := acc.Stats()
	var mm, cv, inf []float64
	for _, r := range reqs {
		var d string
		switch r.Op {
		case loadgen.OpMatMul:
			var req serve.MatMulRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				return err
			}
			m := req.M
			if r.ByName {
				m = r.st.Matrices[r.WeightIdx]
			}
			t := time.Now()
			c, err := acc.MatMul(m, req.X)
			mm = append(mm, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("replaying %s: %w", r.RequestID, err)
			}
			d = diff2D(c, r.want.C)
		case loadgen.OpConv2D:
			var req serve.Conv2DRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				return err
			}
			t := time.Now()
			out, err := acc.Conv2D(req.Input, req.Kernels, req.Stride, req.Pad)
			cv = append(cv, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("replaying %s: %w", r.RequestID, err)
			}
			d = diff3D(out, r.want.Output)
		case loadgen.OpInfer:
			var req serve.InferRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				return err
			}
			t := time.Now()
			logits, _, err := ref.Infer(req.Model, req.Volume, req.Vector)
			inf = append(inf, ms(time.Since(t)))
			if err != nil {
				return fmt.Errorf("replaying %s: %w", r.RequestID, err)
			}
			d = diff1D(logits, r.want.Logits)
		}
		if d != "" {
			return fmt.Errorf("replay of %s differs from the reference: %s", r.RequestID, d)
		}
	}
	after := acc.Stats()

	n := float64(len(mm) + len(cv))
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	rep.values["engine.matmul_ms_mean"] = mean(mm)
	rep.values["engine.conv2d_ms_mean"] = mean(cv)
	rep.values["engine.infer_ms_mean"] = mean(inf)
	rep.values["engine.programs_per_req"] = ratio(float64(after.Programs-before.Programs), n)
	rep.values["engine.lambda_batches_per_req"] = ratio(float64(after.Batches-before.Batches), n)
	rep.values["engine.compile_misses_per_req"] = ratio(misses, n)
	rep.values["engine.evictions_per_req"] = ratio(float64(after.Cache.Evictions-before.Cache.Evictions), n)
	rep.values["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	rep.values["engine.energy_pj_per_req"] = ratio(after.EnergyPJ-before.EnergyPJ, n)
	rep.info["exact_counts"] = map[string]any{
		"requests_on_accelerator": n,
		"programs":                after.Programs - before.Programs,
		"lambda_batches":          after.Batches - before.Batches,
		"cache_misses":            after.Cache.Misses - before.Cache.Misses,
		"cache_evictions":         after.Cache.Evictions - before.Cache.Evictions,
		"energy_pj":               after.EnergyPJ - before.EnergyPJ,
	}
	return nil
}

// photonicLayer times the photonic calls a cache miss and a work item make,
// on every block of the streams' weight catalogs: compiling a block,
// compiling its propagation plan, programming it onto a partition of a
// fabric the size of a backend's, and propagating the streams' column
// count through the plan.
func photonicLayer(streams []*loadgen.Stream, scfg serve.Config, rep *report) error {
	n := scfg.BlockSize
	var blocks []*mat.Dense
	for _, st := range streams {
		for _, m := range st.Matrices {
			d := mat.FromReal(m)
			bi, bj := mat.BlockGrid(d, n)
			for i := 0; i < bi; i++ {
				for j := 0; j < bj; j++ {
					blocks = append(blocks, mat.Block(d, n, i, j))
				}
			}
		}
	}
	fab := photonic.NewFlumenMesh(scfg.Ports)
	part, err := fab.NewPartition(0, n)
	if err != nil {
		return err
	}

	var compile, plan, apply []float64
	plans := make([]*photonic.CompiledPlan, 0, len(blocks))
	for _, b := range blocks {
		t := time.Now()
		bp, err := photonic.CompileBlockScaled(b)
		compile = append(compile, float64(time.Since(t))/1e3)
		if err != nil {
			return err
		}
		t = time.Now()
		pl, _ := bp.Plan()
		plan = append(plan, float64(time.Since(t))/1e3)
		plans = append(plans, pl)
		t = time.Now()
		if err := part.Apply(bp); err != nil {
			return err
		}
		apply = append(apply, float64(time.Since(t))/1e3)
	}

	// Propagation: the input is copied in before every call, so repeated
	// passes never decay into subnormal numbers.
	k := streams[0].Cfg.NRHS
	src := make([]complex128, k*n)
	for i := range src {
		src[i] = complex(float64(i%7)-3, float64(i%5)-2) / 4
	}
	states := make([]complex128, k*n)
	const macBudget = 20_000_000
	reps := max(1, macBudget/(len(plans)*n*n*k))
	t := time.Now()
	for r := 0; r < reps; r++ {
		for _, pl := range plans {
			copy(states, src)
			pl.ForwardBatch(states, k)
		}
	}
	macs := float64(reps * len(plans) * n * n * k)
	rep.values["photonic.forward_batch_ns_per_mac"] = float64(time.Since(t)) / macs
	rep.values["photonic.compile_block_us"] = mean(compile)
	rep.values["photonic.plan_us"] = mean(plan)
	rep.values["photonic.apply_us"] = mean(apply)
	rep.info["photonic_blocks"] = len(blocks)
	return nil
}
