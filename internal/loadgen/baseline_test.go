package loadgen

import (
	"path/filepath"
	"testing"

	"flumen/internal/serve"
)

// The committed loadgen baseline pins the engine's output bits: rebuilding
// its stream from the recorded workload and answering it on a reference
// accelerator with the recorded serving geometry must reproduce both
// digests exactly. Any change to propagation, quantization, noise-free
// scaling or request generation that moves a single output bit fails here,
// without a live server or the perf gate.
const (
	baselineRequestDigest     = "0e51194a799df749a9238af8e18eddd82099f46f9e6c2f905b01c76af087e23f"
	baselineConformanceDigest = "1088fff856afbba0ef2b33f386c3d1a94c2f68dc8aa25ff311e2803277c5cc6a"
)

func TestCommittedBaselineDigests(t *testing.T) {
	base, err := ReadResult(filepath.Join("..", "..", "BENCH_loadgen.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.RequestDigest != baselineRequestDigest || base.ConformanceDigest != baselineConformanceDigest {
		t.Fatalf("BENCH_loadgen.json digests changed: request %s, conformance %s",
			base.RequestDigest, base.ConformanceDigest)
	}

	scfg := serve.DefaultConfig()
	scfg.Ports = base.ServeGeo.Ports
	scfg.BlockSize = base.ServeGeo.BlockSize
	scfg.Precision = base.ServeGeo.Precision
	scfg.InferSeed = base.ServeGeo.InferSeed
	ref, err := serve.NewReference(scfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStream(base.Workload, ref.InferShapes())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.RequestDigest(); got != baselineRequestDigest {
		t.Fatalf("request digest %s, baseline %s", got, baselineRequestDigest)
	}
	_, got, err := st.Expect(scfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != baselineConformanceDigest {
		t.Fatalf("conformance digest %s, baseline %s", got, baselineConformanceDigest)
	}
}
