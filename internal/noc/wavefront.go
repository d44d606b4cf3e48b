package noc

import (
	"fmt"
	"slices"
)

// WavefrontArbiter computes maximal matchings for an N×N crossbar request
// matrix, as used by the MZIM control unit (Sec 3.4). Requests are examined
// in diagonal wavefronts; cells on one wavefront are mutually
// conflict-free, so all grantable requests on a wavefront are granted in
// parallel. A rotating priority pointer shifts the starting diagonal each
// invocation for fairness.
//
// The arbiter works on the sparse list of requested cells: it visits them
// in exactly the order of the dense N² sweep (wave, then source), so the
// grants are the same while the cost follows the number of requests. Its
// scratch buffers live across calls, so arbitration does not allocate once
// they have grown to the largest request list.
type WavefrontArbiter struct {
	n        int
	priority int

	grants  []int
	rowFree []bool
	colFree []bool
	keys    []int  // wave*n + src of each request, sorted
	cells   []Cell // Arbitrate's dense-to-sparse conversion
}

// Cell is one crossbar request: source Src asks for destination Dst.
type Cell struct{ Src, Dst int }

// NewWavefrontArbiter returns an arbiter for an n×n request matrix.
func NewWavefrontArbiter(n int) *WavefrontArbiter {
	if n < 1 {
		panic("noc: arbiter size must be positive")
	}
	return &WavefrontArbiter{
		n:       n,
		grants:  make([]int, n),
		rowFree: make([]bool, n),
		colFree: make([]bool, n),
	}
}

// Arbitrate returns grants[src] = dst (or -1) for the given request matrix,
// honoring pre-existing row/column business: busyRow[s] true means source s
// cannot be granted; busyCol[d] likewise for destinations. req[s][d] must
// be true for a grant to be considered. The priority diagonal rotates on
// every call. The returned slice is reused by the next call.
func (a *WavefrontArbiter) Arbitrate(req [][]bool, busyRow, busyCol []bool) []int {
	if len(req) != a.n {
		panic("noc: request matrix size mismatch")
	}
	a.cells = a.cells[:0]
	for s, row := range req {
		if len(row) != a.n {
			panic("noc: request matrix size mismatch")
		}
		for d, ok := range row {
			if ok {
				a.cells = append(a.cells, Cell{Src: s, Dst: d})
			}
		}
	}
	return a.ArbitrateCells(a.cells, busyRow, busyCol)
}

// ArbitrateCells is Arbitrate over a list of requested cells instead of a
// dense matrix; duplicate cells are harmless. It returns grants[src] = dst
// (or -1) in a slice that is reused by the next call. The priority
// diagonal rotates on every call, with or without requests.
func (a *WavefrontArbiter) ArbitrateCells(cells []Cell, busyRow, busyCol []bool) []int {
	n := a.n
	for i := 0; i < n; i++ {
		a.grants[i] = -1
		a.rowFree[i] = busyRow == nil || !busyRow[i]
		a.colFree[i] = busyCol == nil || !busyCol[i]
	}
	// Cell (s, t) lies on diagonal (t-s) mod n, which the dense sweep
	// reaches at wave (diagonal-priority) mod n, visiting sources in
	// ascending order within a wave.
	keys := a.keys[:0]
	for _, c := range cells {
		if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n {
			panic(fmt.Sprintf("noc: request cell %v outside a %d×%d crossbar", c, n, n))
		}
		wave := (c.Dst - c.Src - a.priority + 2*n) % n
		keys = append(keys, wave*n+c.Src)
	}
	slices.Sort(keys)
	for _, k := range keys {
		wave, s := k/n, k%n
		t := (s + a.priority + wave) % n
		if a.rowFree[s] && a.colFree[t] {
			a.grants[s] = t
			a.rowFree[s] = false
			a.colFree[t] = false
		}
	}
	a.keys = keys
	a.priority = (a.priority + 1) % n
	return a.grants
}
