// Command perfbench is the repository benchmark. It runs one named workload
// against the Flumen stack, checks every output against a reference, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones, measured in a separate run
// with serving traces on. A line before it describes the run (source
// revision, CPU, Go version, seed, workload digests).
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload hot-matmul --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"suite_s", "s"},
}

// perLayer lists the metrics a --trace 1 run reports, grouped by the layer
// that does the work. A workload that does not run a layer reports its
// metrics as 0 and names the layer in the description line.
var perLayer = []struct{ layer, name, unit string }{
	{"loadgen", "loadgen.send_late_p99_ms", "ms"},
	{"loadgen", "loadgen.request_kb_mean", "KB"},

	{"cluster", "cluster.select_ms_mean", "ms"},
	{"cluster", "cluster.router_self_ms_mean", "ms"},
	{"cluster", "cluster.affinity_hit_ratio", "ratio"},
	{"cluster", "cluster.retries_per_req", "count"},
	{"cluster", "cluster.spills_per_req", "count"},
	{"cluster", "cluster.backend_share_max", "ratio"},

	{"serve", "serve.decode_ms_mean", "ms"},
	{"serve", "serve.queue_wait_ms_mean", "ms"},
	{"serve", "serve.coalesce_ms_mean", "ms"},
	{"serve", "serve.exec_ms_mean", "ms"},
	{"serve", "serve.write_ms_mean", "ms"},
	{"serve", "serve.batch_size_mean", "count"},
	{"serve", "serve.rejected_per_req", "count"},

	{"engine", "engine.matmul_ms_mean", "ms"},
	{"engine", "engine.conv2d_ms_mean", "ms"},
	{"engine", "engine.infer_ms_mean", "ms"},
	{"engine", "engine.lease_wait_ms_mean", "ms"},
	{"engine", "engine.programs_per_req", "count"},
	{"engine", "engine.lambda_batches_per_req", "count"},
	{"engine", "engine.compile_misses_per_req", "count"},
	{"engine", "engine.evictions_per_req", "count"},
	{"engine", "engine.cache_hit_ratio", "ratio"},
	{"engine", "engine.energy_pj_per_req", "pJ"},

	{"photonic", "photonic.compile_block_us", "us"},
	{"photonic", "photonic.plan_us", "us"},
	{"photonic", "photonic.apply_us", "us"},
	{"photonic", "photonic.forward_batch_ns_per_mac", "ns/MAC"},

	{"registry", "registry.register_ms_mean", "ms"},
	{"registry", "registry.prewarm_ms", "ms"},

	{"noc", "noc.ring_ns_per_cycle", "ns"},
	{"noc", "noc.mesh_ns_per_cycle", "ns"},
	{"noc", "noc.optbus_ns_per_cycle", "ns"},
	{"noc", "noc.mzim_ns_per_cycle", "ns"},

	{"sim", "sim.ImageBlur_s", "s"},
	{"sim", "sim.VGG16FC_s", "s"},
	{"sim", "sim.ResNet50Conv3_s", "s"},
	{"sim", "sim.JPEG_s", "s"},
	{"sim", "sim.3DRotation_s", "s"},
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    int64
	seconds int
	traced  bool
}

// report is what a workload hands back: the checked outcome, the values it
// measured by metric name, the layers it ran, and self-describing details.
type report struct {
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	layers    []string
	info      map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, info: map[string]any{}}
}

var workloads = map[string]func(params) (*report, error){
	"hot-matmul":   hotMatmul,
	"churn-routed": churnRouted,
	"paper-suite":  paperSuite,
}

func main() {
	name := flag.String("workload", "", "workload to run: hot-matmul | churn-routed | paper-suite")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics with tracing on")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", sortedNames())
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, traced: *traced == 1}
	rep, err := run(p)
	if err == nil && !p.traced {
		rep.values["peak_rss_mb"], err = peakRSSMiB()
	}
	var res *result
	if err == nil {
		res, err = assemble(rep, p.traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.info["workload"] = *name
	rep.info["seed"] = *seed
	rep.info["seconds"] = *seconds
	rep.info["trace"] = *traced
	rep.info["layers_run"] = rep.layers
	for k, v := range environment() {
		rep.info[k] = v
	}
	if err := printJSON(map[string]any{"info": rep.info}); err != nil {
		os.Exit(1)
	}
	if err := printJSON(res); err != nil {
		os.Exit(1)
	}
}

// assemble turns a workload report into the output line, insisting that
// every metric of the requested kind was measured (end-to-end) or belongs to
// a layer the workload did not run (per-layer).
func assemble(rep *report, traced bool) (*result, error) {
	res := &result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := rep.values[m.name]
			if !ok {
				return nil, fmt.Errorf("workload did not measure %s", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
		return res, nil
	}
	ran := map[string]bool{}
	for _, l := range rep.layers {
		ran[l] = true
	}
	for _, m := range perLayer {
		v, ok := rep.values[m.name]
		if ran[m.layer] && !ok {
			return nil, fmt.Errorf("workload ran layer %s but did not measure %s", m.layer, m.name)
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding output:", err)
		return err
	}
	fmt.Println(string(b))
	return nil
}

func sortedNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
