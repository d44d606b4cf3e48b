package noc

// MZIMNet models the Flumen photonic fabric as a NoP: a non-blocking
// crossbar of endpoint ports scheduled by the MZIM control unit's wavefront
// arbiter. Establishing a connection reprograms MZI phases (the 1 ns ≈ 3
// cycle communication setup of Sec 4.1); a programmed path then streams the
// packet at the port's WDM bandwidth. Physical multicast transmits once and
// is heard at every granted destination. Ports can be withdrawn from the
// communication pool while a compute partition owns them (Sec 3.4).
type MZIMNet struct {
	nodes       int
	widthBits   int
	setupCycles int64
	bufCap      int

	queues  [][]*Packet
	arb     *WavefrontArbiter
	conns   []mzimConn
	dstBusy []bool
	portOK  []bool
	rrMC    int

	// lookahead is the per-endpoint request-buffer scan depth of the
	// arbiter (1 = pure FIFO with head-of-line blocking).
	lookahead int

	// Scratch buffers reused across cycles.
	cells       []Cell
	busyRow     []bool
	busyCol     []bool
	queued      int // total queued packets (skip arbitration when zero)
	mcQueued    int // queued multicast packets (skip the multicast pass when zero)
	active      int // active connections
	injectedNow int // packets injected since the last CycleTelemetry read

	sink     func(*Packet, int64)
	counters Counters
}

type mzimConn struct {
	active bool
	dsts   []int
	doneAt int64
	p      *Packet
	// lastDoneAt records when the port's previous transfer completed; a
	// grant issued immediately after completion hides its phase setup
	// behind the previous transfer (the control unit computes matches
	// every cycle and programs the next path while the current one
	// drains).
	lastDoneAt int64
}

// NewMZIM builds a Flumen MZIM NoP with the given endpoint count, per-port
// width (bits/cycle) and connection setup latency in cycles.
func NewMZIM(nodes, widthBits int, setupCycles int64) *MZIMNet {
	if nodes < 2 {
		panic("noc: MZIM needs at least 2 nodes")
	}
	m := &MZIMNet{
		nodes: nodes, widthBits: widthBits, setupCycles: setupCycles,
		bufCap:  16,
		queues:  make([][]*Packet, nodes),
		arb:     NewWavefrontArbiter(nodes),
		conns:   make([]mzimConn, nodes),
		dstBusy: make([]bool, nodes),
		portOK:  make([]bool, nodes),
	}
	for i := range m.portOK {
		m.portOK[i] = true
	}
	m.busyRow = make([]bool, nodes)
	m.busyCol = make([]bool, nodes)
	m.lookahead = 2
	return m
}

// SetLookahead configures the arbiter's request-buffer scan depth (≥1).
// Depth 1 models a pure FIFO endpoint buffer with head-of-line blocking
// (ablation); the default of 2 lets the control unit bypass a blocked
// head.
func (m *MZIMNet) SetLookahead(k int) {
	if k < 1 {
		k = 1
	}
	m.lookahead = k
}

func (m *MZIMNet) Name() string                   { return "Flumen" }
func (m *MZIMNet) Nodes() int                     { return m.nodes }
func (m *MZIMNet) SetSink(f func(*Packet, int64)) { m.sink = f }

func (m *MZIMNet) Counters() Counters {
	c := m.counters
	c.LinkCount = m.nodes // one port-to-fabric link per endpoint
	return c
}

// SetPortAvailable adds or removes a port from the communication pool
// (removed ports belong to an active compute partition).
func (m *MZIMNet) SetPortAvailable(port int, ok bool) {
	m.portOK[port] = ok
}

// BufferOccupancy returns the current per-endpoint request buffer depths,
// which the Flumen scheduler's Partitioner inspects (RegBuffUtil,
// Algorithm 1).
func (m *MZIMNet) BufferOccupancy() []int {
	occ := make([]int, m.nodes)
	for i, q := range m.queues {
		occ[i] = len(q)
	}
	return occ
}

// BufferCapacity returns the per-endpoint buffer capacity.
func (m *MZIMNet) BufferCapacity() int { return m.bufCap }

func (m *MZIMNet) Inject(p *Packet, now int64) bool {
	validatePacket(p, m.nodes)
	if len(m.queues[p.Src]) >= m.bufCap {
		return false
	}
	p.InjectCycle = now
	m.queues[p.Src] = append(m.queues[p.Src], p)
	m.queued++
	if p.Multicast != nil {
		m.mcQueued++
	}
	m.injectedNow++
	m.counters.InjectedPackets++
	return true
}

// CycleTelemetry returns the packets injected since the previous call and
// the current total endpoint buffer occupancy, then resets the injection
// counter. Read once per cycle, this is the feed for a fabric arbiter's
// idle detector.
func (m *MZIMNet) CycleTelemetry() (injected, queued int) {
	injected = m.injectedNow
	m.injectedNow = 0
	return injected, m.queued
}

// deliver hands a transfer to the sink at one destination. A unicast
// packet is delivered itself; each destination of a multicast receives its
// own unicast copy.
func (m *MZIMNet) deliver(p *Packet, dst int, now int64) {
	if p.Multicast != nil {
		dp := *p
		dp.Dst = dst
		dp.Multicast = nil
		p = &dp
	}
	p.RecvCycle = now
	m.counters.DeliveredPackets++
	if m.sink != nil {
		m.sink(p, now)
	}
}

func (m *MZIMNet) Step(now int64) {
	// 1. Complete connections.
	if m.active > 0 {
		for s := range m.conns {
			c := &m.conns[s]
			if !c.active || c.doneAt > now {
				continue
			}
			for _, d := range c.dsts {
				m.deliver(c.p, d, now)
				m.dstBusy[d] = false
			}
			c.active = false
			c.p = nil
			c.lastDoneAt = now
			m.active--
		}
	}
	if m.queued == 0 {
		return
	}
	// 2. Grant multicast/broadcast heads first: a multicast needs every
	// destination port simultaneously (physical splitting tree).
	for k := 0; k < m.nodes && m.mcQueued > 0; k++ {
		s := (m.rrMC + k) % m.nodes
		if m.conns[s].active || !m.portOK[s] || len(m.queues[s]) == 0 {
			continue
		}
		p := m.queues[s][0]
		if p.Multicast == nil {
			continue
		}
		ok := true
		for _, d := range p.Multicast {
			if m.dstBusy[d] || !m.portOK[d] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		m.queues[s] = removeAt(m.queues[s], 0)
		m.queued--
		m.mcQueued--
		m.establish(s, p, now)
		m.rrMC = (s + 1) % m.nodes
	}
	// 3. Wavefront arbitration for unicast heads, with request-buffer
	// lookahead: the control unit can see the first few queued requests
	// per endpoint, relieving FIFO head-of-line blocking when the head's
	// destination is busy.
	lookahead := m.lookahead
	cells := m.cells[:0]
	for s := 0; s < m.nodes; s++ {
		m.busyRow[s] = m.conns[s].active || !m.portOK[s]
		if m.busyRow[s] || len(m.queues[s]) == 0 {
			continue
		}
		if m.queues[s][0].Multicast != nil {
			continue // waits for its destinations to free up
		}
		for k := 0; k < lookahead && k < len(m.queues[s]); k++ {
			p := m.queues[s][k]
			if p.Multicast != nil {
				break // do not reorder around a multicast
			}
			if m.portOK[p.Dst] {
				cells = append(cells, Cell{Src: s, Dst: p.Dst})
			}
		}
	}
	m.cells = cells
	if len(cells) == 0 {
		return
	}
	for d := 0; d < m.nodes; d++ {
		m.busyCol[d] = m.dstBusy[d] || !m.portOK[d]
	}
	grants := m.arb.ArbitrateCells(cells, m.busyRow, m.busyCol)
	for s, d := range grants {
		if d < 0 {
			continue
		}
		for k := 0; k < lookahead && k < len(m.queues[s]); k++ {
			if m.queues[s][k].Dst == d && m.queues[s][k].Multicast == nil {
				p := m.queues[s][k]
				m.queues[s] = removeAt(m.queues[s], k)
				m.queued--
				m.establish(s, p, now)
				break
			}
		}
	}
}

// establish programs a path from src to the packet's destinations (every
// multicast drop, or the unicast Dst) and starts the transfer.
func (m *MZIMNet) establish(src int, p *Packet, now int64) {
	ser := serCycles(p.Bits, m.widthBits)
	setup := m.setupCycles
	if now <= m.conns[src].lastDoneAt+1 {
		// Back-to-back grant: the next path's MZI phases were programmed
		// while the previous transfer drained.
		setup = 0
	}
	c := &m.conns[src]
	c.active = true
	c.doneAt = now + setup + ser
	c.p = p
	if p.Multicast != nil {
		c.dsts = append(c.dsts[:0], p.Multicast...)
	} else {
		c.dsts = append(c.dsts[:0], p.Dst)
	}
	for _, d := range c.dsts {
		m.dstBusy[d] = true
	}
	m.active++
	m.counters.Reconfigurations++
	m.counters.PhotonicBits += int64(p.Bits)
	m.counters.LinkBusyCycles += ser
}
