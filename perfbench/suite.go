package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"time"

	"flumen"
	"flumen/internal/chip"
	"flumen/internal/core"
	"flumen/internal/noc"
	"flumen/internal/workload"
)

// simulations is the paper suite's size: five benchmarks on five topologies.
const simulations = 25

// paperSuite runs flumen.RunSuite(DefaultConfig(), 1), the 25 paper-scale
// simulations behind Figs. 13-15, back to back for the measured window and
// checks each suite's results digest against the one recorded in
// BENCHMARK.json. Times come from the quieter half of the suites (see
// quietest). The suite takes no seed: its inputs are fixed by the
// paper, and the seed only drives the traced run's network microbenchmark.
func paperSuite(p params) (*report, error) {
	rep := newReport()
	rep.layers = []string{"noc", "sim"}
	want, err := recordedSuiteDigest("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	cfg := flumen.DefaultConfig()

	var setup []float64
	for i := 0; i < setups; i++ {
		runtime.GC()
		t := time.Now()
		buildSuiteInputs(cfg)
		setup = append(setup, time.Since(t).Seconds())
	}
	rep.values["setup_s"] = median(setup)
	rep.correct = true
	if p.traced {
		return rep, tracedSuite(p, cfg, want, rep)
	}

	// One untimed suite first: the first run in a process also pays for
	// growing the heap.
	if _, err := flumen.RunSuite(cfg, 1); err != nil {
		return nil, err
	}
	var times, steal []float64
	end := time.Now().Add(time.Duration(p.seconds) * time.Second)
	for rep.attempted == 0 || time.Now().Before(end) {
		rep.attempted++
		runtime.GC()
		s0, t := hostSteal(), time.Now()
		s, err := flumen.RunSuite(cfg, 1)
		d := time.Since(t).Seconds()
		if err != nil {
			rep.failed++
			rep.info["first_failure"] = err.Error()
			continue
		}
		times = append(times, d)
		steal = append(steal, hostSteal()-s0)
		if got := suiteDigest(s.Results); got != want {
			rep.correct = false
			rep.info["suite_digest"] = got
		}
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("every paper suite failed: %v", rep.info["first_failure"])
	}
	quiet := pick(times, quietest(steal))
	rep.values["suite_s"] = median(quiet)
	rep.values["latency_p50_ms"] = 1000 * percentile(quiet, 50)
	rep.values["latency_p90_ms"] = 1000 * percentile(quiet, 90)
	var busy float64
	for _, t := range quiet {
		busy += t
	}
	rep.values["throughput_rps"] = float64(simulations*len(quiet)) / busy
	rep.values["ok_ratio"] = ratio(float64(len(times)), float64(rep.attempted))
	rep.info["host_steal_share"] = stealShare(steal, time.Duration(mean(times)*float64(time.Second)))
	rep.info["suites"] = len(times)
	return rep, nil
}

// tracedSuite times each network model on synthetic traffic and each
// benchmark's simulations one at a time, and checks the digest of the
// results those simulations produce.
func tracedSuite(p params, cfg flumen.Config, want string, rep *report) error {
	np := core.DefaultNetworkParams()
	nets := []struct {
		metric string
		kind   core.TopologyKind
	}{
		{"noc.ring_ns_per_cycle", core.TopoRing},
		{"noc.mesh_ns_per_cycle", core.TopoMesh},
		{"noc.optbus_ns_per_cycle", core.TopoOptBus},
		{"noc.mzim_ns_per_cycle", core.TopoFlumenI},
	}
	rcfg := noc.DefaultRunConfig()
	rcfg.Seed = p.seed
	for _, n := range nets {
		var perCycle []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			res := noc.RunSynthetic(core.BuildNetwork(n.kind, np), noc.Uniform(np.Nodes), 0.02, rcfg)
			perCycle = append(perCycle, float64(time.Since(t))/float64(res.ElapsedCycles))
		}
		rep.values[n.metric] = median(perCycle)
	}

	results := map[string]map[string]flumen.Result{}
	for _, b := range flumen.Benchmarks() {
		results[b] = map[string]flumen.Result{}
		var total time.Duration
		for _, topo := range flumen.Topologies() {
			rep.attempted++
			t := time.Now()
			res, err := flumen.RunBenchmark(b, topo, cfg)
			total += time.Since(t)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", b, topo, err)
			}
			results[b][topo] = res
		}
		rep.values["sim."+b+"_s"] = total.Seconds()
	}
	if got := suiteDigest(results); got != want {
		rep.correct = false
		rep.info["suite_digest"] = got
	}
	return nil
}

// buildSuiteInputs constructs what the suite's 25 simulations start from:
// each benchmark's paper-scale workload, each topology's network, the chip
// around it and the per-core operation streams.
func buildSuiteInputs(cfg flumen.Config) {
	np := core.DefaultNetworkParams()
	np.Nodes = cfg.Chiplets
	ccfg := chip.DefaultConfig()
	ccfg.Cores = cfg.Cores
	ccfg.Chiplets = cfg.Chiplets
	for _, w := range workload.ScaledAll(1) {
		for _, kind := range core.AllTopologies() {
			sys := chip.NewSystem(ccfg, core.BuildNetwork(kind, np))
			streams := w.DigitalStreams(cfg.Cores)
			if kind == core.TopoFlumenA {
				streams = w.OffloadStreams(cfg.Cores, cfg.ComputeBlock, cfg.ComputeLambdas)
			}
			for i, s := range streams {
				sys.SetStream(i, s)
			}
		}
	}
}

// suiteDigest hashes the suite's simulated results. encoding/json writes
// map keys sorted and floats in their shortest exact form, so equal digests
// mean bit-identical statistics.
func suiteDigest(results map[string]map[string]flumen.Result) string {
	b, err := json.Marshal(results)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

var digestRE = regexp.MustCompile(`results sha256 ([0-9a-f]{64})`)

// recordedSuiteDigest reads the expected results digest from the
// paper-suite workload's description in BENCHMARK.json.
func recordedSuiteDigest(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("reading the recorded suite digest: %w", err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range bench.Workloads {
		if w.Name == "paper-suite" {
			if m := digestRE.FindStringSubmatch(w.Why); m != nil {
				return m[1], nil
			}
		}
	}
	return "", fmt.Errorf(`%s: the paper-suite workload records no "results sha256 <digest>"`, path)
}
