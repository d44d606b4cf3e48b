package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestRunSyntheticPinnedBits pins the exact results of seeded synthetic
// runs on each topology at the paper's network parameters. The loads span
// light, contended and saturated operation, so any change to arbitration
// order, flow control or timing moves a digest. The digests were recorded
// on linux/amd64; a change that is meant to alter the simulated network
// must re-record them and say why.
func TestRunSyntheticPinnedBits(t *testing.T) {
	cfg := DefaultRunConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 500, 3000, 6000
	points := []struct {
		pat  Pattern
		rate float64
	}{
		{Uniform(16), 0.02},
		{Uniform(16), 0.15},
		{Hotspot(16, 5, 0.3), 0.08},
		{Transpose(16), 0.3},
	}
	topos := []struct {
		name string
		mk   func() Network
		want string
	}{
		{"Ring", func() Network { return NewRing(16, 560, 4) },
			"f82300924985bc990ba13770484cd9dc3b884d73a35ab53a04e7d615af0691d6"},
		{"Mesh", func() Network { return NewMesh(4, 4, 320, 4) },
			"8045738515e5e0a3c23bd1974daf9f71dfee59f91b5e634b6e9d11ab29d699bc"},
		{"OptBus", func() Network { return NewOptBus(16, 8, 256) },
			"97aa96c535f2803e5c446905c662c86d82cbb0aad347721cb1a9c7319e33412b"},
		{"MZIM", func() Network { return NewMZIM(16, 256, 3) },
			"f6ac5b6bc26aa7851e5c3dafc37f4db580698465c652128c068098e7950a2538"},
		{"MZIM-FIFO", func() Network { m := NewMZIM(16, 256, 3); m.SetLookahead(1); return m },
			"24b3ae84afe58590b8d15b1749b36aa84fef54e7b70c87a514e20c99b3cebb4e"},
	}
	for _, tp := range topos {
		var results []RunResult
		for i, pt := range points {
			c := cfg
			c.Seed = int64(i + 1)
			results = append(results, RunSynthetic(tp.mk(), pt.pat, pt.rate, c))
		}
		b, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != tp.want {
			t.Errorf("%s: synthetic results digest %s, want %s", tp.name, got, tp.want)
		}
	}
}
