package flumen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"flumen/internal/workload"
)

// quarterScaleSuiteDigest is the sha256 of json.Marshal(RunSuite(
// DefaultConfig(), 4).Results), recorded on linux/amd64. A change meant to
// alter the simulated results must re-record it and say why.
const quarterScaleSuiteDigest = "5a96654ef16c6f91dedb7542cd98e43fcc773cbad41ddbf4369d3dfeb983539b"

func TestRunSuiteHeadlines(t *testing.T) {
	// The paper's headline geometric means (Flumen-A vs Mesh): 3.6×
	// speedup, 2.5× energy, 9.3× EDP. At quarter scale our shapes land in
	// the same neighbourhood; assert generous but meaningful bounds.
	s, err := RunSuite(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Benchmarks) != 5 {
		t.Fatalf("suite ran %d benchmarks", len(s.Benchmarks))
	}
	// Pin the simulated statistics bit for bit: encoding/json writes map
	// keys sorted and floats in their shortest exact form, so any drift in
	// the chip or network models moves this digest.
	b, err := json.Marshal(s.Results)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != quarterScaleSuiteDigest {
		t.Errorf("quarter-scale suite results digest %s, want %s", got, quarterScaleSuiteDigest)
	}
	sp := s.GeomeanSpeedup("Mesh")
	if sp < 1.5 || sp > 8 {
		t.Fatalf("geomean speedup %.2f outside the paper's neighbourhood (3.6×)", sp)
	}
	eg := s.GeomeanEnergyGain("Mesh")
	if eg < 1.3 || eg > 8 {
		t.Fatalf("geomean energy gain %.2f outside the paper's neighbourhood (2.5×)", eg)
	}
	edp := s.GeomeanEDPGain("Mesh")
	if edp < 2 || edp > 60 {
		t.Fatalf("geomean EDP gain %.2f outside the paper's neighbourhood (9.3×)", edp)
	}
	// EDP gain ≈ speedup × energy gain by construction.
	if math.Abs(edp-sp*eg)/edp > 0.25 {
		t.Fatalf("EDP gain %.2f inconsistent with speedup %.2f × energy %.2f", edp, sp, eg)
	}
}

func TestSuiteOrderingMatchesPaperExtremes(t *testing.T) {
	// The paper's defining ordering: 3D Rotation and ResNet50 Conv3 at
	// the top of the speedup ranking; VGG16 FC and Image Blur in the
	// bottom tier.
	s, err := RunSuite(DefaultConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]float64{}
	for _, b := range s.Benchmarks {
		sp[b] = s.Results[b]["Flumen-A"].SpeedupOver(s.Results[b]["Mesh"])
	}
	top := math.Max(sp["3DRotation"], sp["ResNet50Conv3"])
	bottom := math.Min(sp["VGG16FC"], sp["ImageBlur"])
	for _, b := range s.Benchmarks {
		if b == "3DRotation" || b == "ResNet50Conv3" {
			continue
		}
		if sp[b] > top {
			t.Errorf("%s (%.2f×) outranks the paper's top tier (%.2f×)", b, sp[b], top)
		}
	}
	if bottom > sp["JPEG"] {
		t.Errorf("bottom tier (%.2f×) outranks JPEG (%.2f×)", bottom, sp["JPEG"])
	}
}

func TestAblationProgramPipeliningHurtsVGG(t *testing.T) {
	// Disabling the double-buffered phase DACs exposes the full 6 ns per
	// block switch; the zero-reuse VGG16 FC must slow down markedly while
	// the reuse-heavy rotation barely notices.
	var vgg, rot workload.Workload
	for _, w := range workload.ScaledAll(4) {
		switch w.Name() {
		case "VGG16FC":
			vgg = w
		case "3DRotation":
			rot = w
		}
	}
	cfgOn := DefaultConfig()
	cfgOff := DefaultConfig()
	cfgOff.DisableProgramPipelining = true

	vggOn, err := RunWorkload(vgg, "Flumen-A", cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	vggOff, err := RunWorkload(vgg, "Flumen-A", cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	if float64(vggOff.Cycles) < 1.5*float64(vggOn.Cycles) {
		t.Fatalf("serialized programming should hurt VGG: %d vs %d cycles", vggOff.Cycles, vggOn.Cycles)
	}

	rotOn, err := RunWorkload(rot, "Flumen-A", cfgOn)
	if err != nil {
		t.Fatal(err)
	}
	rotOff, err := RunWorkload(rot, "Flumen-A", cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rotOff.Cycles) > 1.3*float64(rotOn.Cycles) {
		t.Fatalf("high-reuse rotation should barely notice: %d vs %d cycles", rotOff.Cycles, rotOn.Cycles)
	}
}

func TestGeomeanHelper(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean %g", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("empty geomean %g", g)
	}
	if g := geomean([]float64{1, -1}); g != 0 {
		t.Fatalf("non-positive geomean %g", g)
	}
}
