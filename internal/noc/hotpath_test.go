package noc

import (
	"math/rand"
	"testing"
)

// denseArbiter is the reference wavefront arbiter: the N² sweep over the
// full request matrix that WavefrontArbiter's sparse arbitration must
// reproduce grant for grant.
type denseArbiter struct {
	n, priority int
}

func (a *denseArbiter) arbitrate(req [][]bool, busyRow, busyCol []bool) []int {
	grants := make([]int, a.n)
	for i := range grants {
		grants[i] = -1
	}
	rowFree := make([]bool, a.n)
	colFree := make([]bool, a.n)
	for i := 0; i < a.n; i++ {
		rowFree[i] = busyRow == nil || !busyRow[i]
		colFree[i] = busyCol == nil || !busyCol[i]
	}
	for wave := 0; wave < a.n; wave++ {
		d := (a.priority + wave) % a.n
		for s := 0; s < a.n; s++ {
			t := (s + d) % a.n
			if rowFree[s] && colFree[t] && req[s][t] {
				grants[s] = t
				rowFree[s] = false
				colFree[t] = false
			}
		}
	}
	a.priority = (a.priority + 1) % a.n
	return grants
}

func randomMask(rng *rand.Rand, n int, p float64) []bool {
	if rng.Intn(4) == 0 {
		return nil
	}
	m := make([]bool, n)
	for i := range m {
		m[i] = rng.Float64() < p
	}
	return m
}

// TestSparseWavefrontMatchesDenseSweep runs the sparse arbiter and the
// dense reference side by side over thousands of random request sets and
// busy masks. Grants must agree on every call and the rotating priority
// must advance identically, through both Arbitrate and ArbitrateCells.
func TestSparseWavefrontMatchesDenseSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := []int{1, 2, 3, 5, 8, 16}[trial%6]
		arb := NewWavefrontArbiter(n)
		ref := &denseArbiter{n: n}
		for call := 0; call < 100; call++ {
			density := rng.Float64()
			req := make([][]bool, n)
			for s := range req {
				req[s] = make([]bool, n)
			}
			var cells []Cell
			if call%2 == 0 {
				// At most two requests per source, possibly repeated, as
				// the MZIM's lookahead produces.
				for s := 0; s < n; s++ {
					for k := 0; k < 2; k++ {
						if rng.Float64() < density {
							d := rng.Intn(n)
							req[s][d] = true
							cells = append(cells, Cell{Src: s, Dst: d})
						}
					}
				}
				rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
			} else {
				for s := range req {
					for d := range req[s] {
						req[s][d] = rng.Float64() < density
					}
				}
			}
			busyRow, busyCol := randomMask(rng, n, 0.3), randomMask(rng, n, 0.3)
			want := ref.arbitrate(req, busyRow, busyCol)
			var got []int
			if call%2 == 0 {
				got = arb.ArbitrateCells(cells, busyRow, busyCol)
			} else {
				got = arb.Arbitrate(req, busyRow, busyCol)
			}
			for s := range want {
				if got[s] != want[s] {
					t.Fatalf("n=%d call %d: sparse grants %v, dense sweep %v", n, call, got, want)
				}
			}
			if arb.priority != ref.priority {
				t.Fatalf("n=%d call %d: priority %d, dense sweep %d", n, call, arb.priority, ref.priority)
			}
		}
	}
}

// steadyTraffic drives a network with a deterministic unicast stream whose
// packets are recycled on delivery, so that after warm-up nothing in the
// loop needs fresh memory. step injects at most one packet and advances
// the network one cycle.
type steadyTraffic struct {
	net   Network
	free  []*Packet
	cycle int64
}

func newSteadyTraffic(net Network, packets int) *steadyTraffic {
	st := &steadyTraffic{net: net, free: make([]*Packet, 0, packets)}
	for i := 0; i < packets; i++ {
		st.free = append(st.free, &Packet{ID: int64(i), Bits: 640})
	}
	net.SetSink(func(p *Packet, _ int64) { st.free = append(st.free, p) })
	return st
}

func (st *steadyTraffic) step() {
	n := int64(st.net.Nodes())
	if len(st.free) > 0 && st.cycle%2 == 0 {
		p := st.free[len(st.free)-1]
		p.Src = int(st.cycle / 2 % n)
		p.Dst = int((int64(p.Src) + 1 + st.cycle/3%(n-1)) % n)
		if st.net.Inject(p, st.cycle) {
			st.free = st.free[:len(st.free)-1]
		}
	}
	st.net.Step(st.cycle)
	st.cycle++
}

// TestSteadyStateStepsDoNotAllocate gates the allocation-free cycle loop:
// once warmed, injecting and stepping every topology under steady traffic,
// and arbitrating a request list, make no allocations.
func TestSteadyStateStepsDoNotAllocate(t *testing.T) {
	for _, net := range []Network{
		NewRing(16, 560, 4),
		NewMesh(4, 4, 320, 4),
		NewOptBus(16, 8, 256),
		NewMZIM(16, 256, 3),
	} {
		st := newSteadyTraffic(net, 64)
		for i := 0; i < 5000; i++ {
			st.step()
		}
		before := net.Counters().DeliveredPackets
		// AllocsPerRun rounds the per-run mean down, so one run covers all
		// 2000 cycles and any allocation at all shows.
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 2000; i++ {
				st.step()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations in 2000 warmed cycles, want 0", net.Name(), allocs)
		}
		if net.Counters().DeliveredPackets == before {
			t.Errorf("%s: no packets delivered while measuring", net.Name())
		}
	}

	arb := NewWavefrontArbiter(16)
	cells := []Cell{{0, 3}, {0, 5}, {1, 3}, {2, 2}, {4, 9}, {4, 9}, {15, 0}, {7, 3}}
	busy := make([]bool, 16)
	busy[9] = true
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 100; i++ {
			arb.ArbitrateCells(cells, nil, busy)
		}
	})
	if allocs != 0 {
		t.Errorf("ArbitrateCells: %v allocations in 100 calls, want 0", allocs)
	}
}
