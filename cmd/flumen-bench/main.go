// Command flumen-bench regenerates the paper's full-system evaluation:
// the per-component energy breakdown (Fig. 13), application speedup of
// Flumen-A over the other topologies (Fig. 14), and energy-delay product
// (Fig. 15), for the five Sec 4.2 benchmarks across the five evaluated
// interconnect configurations.
//
// Usage:
//
//	flumen-bench [-benchmark name] [-scale n] [-energy] [-speedup] [-edp]
//	flumen-bench -engine [-engineout file]
//	flumen-bench -fabric [-fabricout file]
//	flumen-bench -faults [-faultsout file] [-smoke]
//	flumen-bench -kernel [-kernelout file] [-smoke]
//	flumen-bench -cluster [-clusterout file] [-smoke]
//	flumen-bench -registry [-registryout file] [-smoke]
//
// With no selector flags all three tables print. -scale shrinks the
// workloads by the given linear factor for quick runs. -engine instead
// times the parallel compute engine (serial vs pooled MatMul, cold vs
// warm-cache Conv2D) and writes the results to -engineout
// (BENCH_engine.json by default). -fabric benchmarks the dynamic fabric
// arbiter — opportunistic compute throughput at zero network load versus a
// dedicated accelerator, network latency under load versus the
// network-only baseline, and the reclaim latency of an idle→busy load
// step — and writes BENCH_fabric.json. -faults sweeps injected phase-drift
// rates over a fabric with two faulted partitions, comparing MatMul
// accuracy and throughput for an unmonitored mesh against the device-health
// monitor (quarantine + in-situ recalibration), plus a flumend serving
// check, and writes BENCH_faults.json; -smoke shrinks the sweep and exits
// non-zero if the acceptance thresholds are missed. -kernel sweeps MatMul
// sizes × right-hand-side counts, comparing the device-by-device fabric
// interpreter against the compiled SoA kernels and timing the engine's
// compiled path (cold and warm caches, bitwise-checked at every point),
// and writes BENCH_kernel.json; with -smoke it shrinks the sweep and
// enforces only the bitwise gates.
// -cluster spins up a weight-affinity router over in-process flumend
// backends on loopback and compares warm-cache throughput of affinity
// routing against random routing (responses bitwise-checked against a
// single-node reference), writing BENCH_cluster.json; -smoke shrinks the
// fleet and fails unless affinity wins, responses match, and the router
// drains cleanly. -registry benchmarks the model registry against a
// disk-backed flumend: by-name versus inline-weights request throughput,
// latency and request bytes (bitwise-checked), and cold-compile versus
// prewarmed first-request latency across a kill + restart on the same
// store, writing BENCH_registry.json; -smoke shrinks the run and fails
// unless responses match bitwise, by-name requests shrink materially, and
// the post-restart first request adds zero cache misses.
//
// Bitwise equality is enforced in every mode, smoke or not: any arm whose
// responses diverge from its reference exits non-zero, never just a
// bitwise_equal:false field in the JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"flumen"
	"flumen/internal/workload"
)

func main() {
	benchFlag := flag.String("benchmark", "", "run a single benchmark (default: all)")
	scale := flag.Int("scale", 1, "linear workload shrink factor (1 = paper scale)")
	energyOnly := flag.Bool("energy", false, "print only the Fig. 13 energy table")
	speedupOnly := flag.Bool("speedup", false, "print only the Fig. 14 speedup table")
	edpOnly := flag.Bool("edp", false, "print only the Fig. 15 EDP table")
	jsonOut := flag.Bool("json", false, "emit the full result grid as JSON")
	engine := flag.Bool("engine", false, "benchmark the parallel compute engine and program cache")
	engineOut := flag.String("engineout", "BENCH_engine.json", "output file for -engine results")
	fabricBench := flag.Bool("fabric", false, "benchmark the dynamic fabric arbiter (throughput, latency, reclaim)")
	fabricOut := flag.String("fabricout", "BENCH_fabric.json", "output file for -fabric results")
	faultsBench := flag.Bool("faults", false, "benchmark the device-health monitor (fault sweep: accuracy, throughput, serving)")
	faultsOut := flag.String("faultsout", "BENCH_faults.json", "output file for -faults results")
	kernelBench := flag.Bool("kernel", false, "benchmark compiled propagation kernels vs the interpreted path")
	kernelOut := flag.String("kernelout", "BENCH_kernel.json", "output file for -kernel results")
	clusterBench := flag.Bool("cluster", false, "benchmark affinity vs random routing over in-process flumend backends")
	clusterOut := flag.String("clusterout", "BENCH_cluster.json", "output file for -cluster results")
	registryBench := flag.Bool("registry", false, "benchmark by-name vs inline-weights serving and registry warm-start")
	registryOut := flag.String("registryout", "BENCH_registry.json", "output file for -registry results")
	smoke := flag.Bool("smoke", false, "with -faults/-kernel/-cluster: shrink the sweep and fail on acceptance violations")
	flag.Parse()

	if *registryBench {
		if err := runRegistryBench(*registryOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *clusterBench {
		if err := runClusterBench(*clusterOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *kernelBench {
		if err := runKernelBench(*kernelOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *engine {
		if err := runEngineBench(*engineOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *fabricBench {
		if err := runFabricBench(*fabricOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *faultsBench {
		if err := runFaultsBench(*faultsOut, *smoke); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	cfg := flumen.DefaultConfig()
	var loads []workload.Workload
	for _, w := range workload.ScaledAll(*scale) {
		if *benchFlag == "" || w.Name() == *benchFlag {
			loads = append(loads, w)
		}
	}
	if len(loads) == 0 {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q; options: %v\n", *benchFlag, flumen.Benchmarks())
		os.Exit(1)
	}

	topos := flumen.Topologies()
	results := map[string]map[string]flumen.Result{}
	for _, w := range loads {
		results[w.Name()] = map[string]flumen.Result{}
		for _, topo := range topos {
			res, err := flumen.RunWorkload(w, topo, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			results[w.Name()][topo] = res
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	all := !*energyOnly && !*speedupOnly && !*edpOnly
	if all || *energyOnly {
		printEnergy(loads, topos, results)
	}
	if all || *speedupOnly {
		printSpeedup(loads, topos, results)
	}
	if all || *edpOnly {
		printEDP(loads, topos, results)
	}
}

func printEnergy(loads []workload.Workload, topos []string, results map[string]map[string]flumen.Result) {
	fmt.Println("=== Fig. 13: energy consumption breakdown by component (µJ) ===")
	fmt.Printf("%-14s %-9s %9s %7s %7s %7s %7s %8s %8s %9s\n",
		"benchmark", "topology", "core", "L1i", "L1d", "L2", "L3", "DRAM", "NoP", "total")
	for _, w := range loads {
		for _, topo := range topos {
			r := results[w.Name()][topo]
			e := r.Energy
			fmt.Printf("%-14s %-9s %9.1f %7.1f %7.1f %7.1f %7.1f %8.1f %8.1f %9.1f\n",
				w.Name(), topo,
				e.CorePJ/1e6, e.L1iPJ/1e6, e.L1dPJ/1e6, e.L2PJ/1e6, e.L3PJ/1e6,
				e.DRAMPJ/1e6, e.NoPPJ/1e6, e.TotalPJ()/1e6)
		}
		fmt.Println()
	}
	var gains []float64
	for _, w := range loads {
		fa := results[w.Name()]["Flumen-A"]
		mesh := results[w.Name()]["Mesh"]
		g := fa.EnergyGainOver(mesh)
		gains = append(gains, g)
		fmt.Printf("  %-14s Flumen-A energy gain over Mesh: %.2f×\n", w.Name(), g)
	}
	fmt.Printf("  geometric mean: %.2f×  (paper: 2.5×)\n\n", geomean(gains))
}

func printSpeedup(loads []workload.Workload, topos []string, results map[string]map[string]flumen.Result) {
	fmt.Println("=== Fig. 14: speedup of Flumen-A over each topology ===")
	fmt.Printf("%-14s", "benchmark")
	for _, topo := range topos {
		if topo == "Flumen-A" {
			continue
		}
		fmt.Printf(" %9s", topo)
	}
	fmt.Println()
	var meshGains []float64
	for _, w := range loads {
		fa := results[w.Name()]["Flumen-A"]
		fmt.Printf("%-14s", w.Name())
		for _, topo := range topos {
			if topo == "Flumen-A" {
				continue
			}
			fmt.Printf(" %8.2f×", fa.SpeedupOver(results[w.Name()][topo]))
		}
		fmt.Println()
		meshGains = append(meshGains, fa.SpeedupOver(results[w.Name()]["Mesh"]))
	}
	fmt.Printf("geometric mean over Mesh: %.2f×  (paper: 3.6×)\n\n", geomean(meshGains))
}

func printEDP(loads []workload.Workload, topos []string, results map[string]map[string]flumen.Result) {
	fmt.Println("=== Fig. 15: energy-delay product (nJ·s) ===")
	fmt.Printf("%-14s", "benchmark")
	for _, topo := range topos {
		fmt.Printf(" %11s", topo)
	}
	fmt.Println()
	var gains []float64
	for _, w := range loads {
		fmt.Printf("%-14s", w.Name())
		for _, topo := range topos {
			fmt.Printf(" %11.3f", results[w.Name()][topo].EDPJouleSeconds*1e9)
		}
		fmt.Println()
		fa := results[w.Name()]["Flumen-A"]
		gains = append(gains, fa.EDPGainOver(results[w.Name()]["Mesh"]))
	}
	fmt.Println(strings.Repeat("-", 40))
	for i, w := range loads {
		fmt.Printf("  %-14s Flumen-A EDP gain over Mesh: %.1f×\n", w.Name(), gains[i])
	}
	fmt.Printf("  geometric mean: %.1f×  (paper: 9.3×)\n", geomean(gains))
}

func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
