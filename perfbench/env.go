package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// environment describes the machine and the code a result was measured
// on, so a number can be compared with another only when they match.
func environment() map[string]any {
	return map[string]any{
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"git_sha":       gitSHA(),
		"source_digest": sourceDigest("."),
	}
}

// gitSHA is the checked-out commit when the working directory is the top of
// a git work tree, and "unknown" otherwise (an exported checkout carries no
// history; source_digest still names the code).
func gitSHA() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

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

// sourceDigest hashes the Go sources and module files under root (hidden
// directories skipped), naming the code that was measured when the checkout
// carries no version-control metadata.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return "unknown"
		}
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// hostSteal is the CPU time, in seconds summed over CPUs, that the
// hypervisor has run other guests on this machine's CPUs since boot: the
// steal column of /proc/stat, in 1/100 s ticks. It is 0 where the kernel
// does not report it.
func hostSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// sliceSteal samples hostSteal over n one-second slices starting at t0;
// the returned function waits for the last slice to end and returns the
// steal in each.
func sliceSteal(t0 time.Time, n int) func() []float64 {
	steal := make([]float64, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(time.Until(t0))
		prev := hostSteal()
		for i := range steal {
			time.Sleep(time.Until(t0.Add(time.Duration(i+1) * time.Second)))
			cur := hostSteal()
			steal[i], prev = cur-prev, cur
		}
	}()
	return func() []float64 {
		<-done
		return steal
	}
}

// quietest returns, in sample order, the indices of the half of the samples
// (rounded up) during which the host stole the least CPU time. The host is
// a shared virtual machine: when the hypervisor runs other guests on its
// CPUs every timing here stretches with it (per-second latency medians on
// churn-routed went from 3.7 ms at 1% steal to 12.6 ms at 33%), so each
// repeated measurement keeps the samples taken while the host was
// quietest. Where no sample saw more steal than another, all are kept.
func quietest(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	if len(steal) == 0 || slices.Min(steal) == slices.Max(steal) {
		return idx
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	idx = idx[:(len(idx)+1)/2]
	sort.Ints(idx)
	return idx
}

// pick returns xs at the given indices.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// stealShare is the share of CPU time stolen over samples of length each.
func stealShare(steal []float64, each time.Duration) float64 {
	var sum float64
	for _, s := range steal {
		sum += s
	}
	return ratio(sum, float64(len(steal))*each.Seconds()*float64(runtime.NumCPU()))
}

// percentile is nearest-rank over xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Clone(xs)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
