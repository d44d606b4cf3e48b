package chip

import (
	"fmt"
	"math"

	"flumen/internal/noc"
)

// Config describes the multicore system of Table 1.
type Config struct {
	Cores    int
	Chiplets int

	LineBytes    int
	L1Bytes      int
	L1Ways       int
	L2Bytes      int
	L2Ways       int
	L3SliceBytes int // per chiplet slice
	L3Ways       int

	L1HitCycles int64
	L2HitCycles int64
	L3HitCycles int64
	DRAMCycles  int64
	// DRAMServiceCycles is the per-line occupancy of one memory channel
	// (bandwidth limit): a channel serves one 64 B line every this many
	// cycles in addition to the access latency.
	DRAMServiceCycles int64
	// CyclesPerMAC models the sustained multiply-accumulate issue rate of
	// one core on real (quantized, index-heavy) kernel code.
	CyclesPerMAC int64

	ReqBits  int
	RespBits int

	MemControllers []int // chiplet ids hosting DRAM channels

	// UtilWindow is the sampling window (cycles) for the link-utilization
	// timeline of Fig. 1; 0 disables sampling.
	UtilWindow int64
	// MaxCycles aborts runaway simulations.
	MaxCycles int64
}

// DefaultConfig returns the Table 1 system: 64 cores on 16 chiplets,
// 32 kB L1s, 512 kB private L2, a 16 MB L3 shared at 4-core concentration
// (1 MB slice per chiplet), and four DRAM channels at the corner chiplets.
func DefaultConfig() Config {
	return Config{
		Cores:    64,
		Chiplets: 16,

		LineBytes:    64,
		L1Bytes:      32 << 10,
		L1Ways:       8,
		L2Bytes:      512 << 10,
		L2Ways:       16,
		L3SliceBytes: 1 << 20,
		L3Ways:       16,

		L1HitCycles:       1,
		L2HitCycles:       8,
		L3HitCycles:       30,
		DRAMCycles:        250,
		DRAMServiceCycles: 8,
		CyclesPerMAC:      2,

		ReqBits:  128,
		RespBits: 640,

		MemControllers: []int{0, 3, 12, 15},

		UtilWindow: 0,
		MaxCycles:  500_000_000,
	}
}

// OffloadHandler receives KindOffload jobs. It returns true when the job is
// accepted (the core blocks until done is invoked); returning false makes
// the core execute the job's local fallback via the workload's convention
// (the handler itself is responsible for arranging fallback ops when it
// rejects — see internal/core).
type OffloadHandler func(coreID int, job any, now int64, done func()) bool

// System couples the cores, cache hierarchy and NoP.
type System struct {
	cfg   Config
	net   noc.Network
	cores []*coreState
	l3    []*Cache

	handler OffloadHandler

	now       int64
	events    eventHeap
	recurring []*recurringEvent
	pktID     int64
	sendQ     []fifo[*noc.Packet] // per-node packets awaiting injection
	queued    int                 // packets across sendQ
	// pending holds what runs on the arrival of each packet from ID
	// pendingBase on, in ID order; arrived entries leave from the front.
	pending     fifo[delivery]
	pendingBase int64
	mcFree      []int64 // per-chiplet memory-controller next-free cycle
	inFlight    int
	freeTxn     *lineTxn // pool of finished line transactions

	// nDone and nBarrier count the cores that have finished and that wait
	// at a barrier, so the per-cycle termination and barrier checks do not
	// scan the cores.
	nDone    int
	nBarrier int
	// wake[i] is the cycle from which core i can issue: its readyAt while
	// it is neither finished, blocked on memory or an offload, nor waiting
	// at a barrier, and never otherwise. The per-cycle core scan reads
	// this array instead of every core's state.
	wake []int64

	stats    Stats
	samples  []float64
	lastBusy int64
}

type coreState struct {
	id      int
	chiplet int
	stream  Stream

	readyAt   int64
	blockedOn int // outstanding memory responses
	offload   bool
	done      bool
	atBarrier bool

	cur      Op
	curValid bool
	lineIdx  int

	l1i *Cache
	l1d *Cache
	l2  *Cache

	activeCycles int64
	macs         int64
	adds         int64
	l1iAccesses  int64
	doneAt       int64

	// Stall attribution: cycle at which the current memory/offload block
	// began, accumulated into the per-kind totals when it ends.
	memBlockedSince     int64
	offloadBlockedSince int64
	memStallCycles      int64
	offloadStallCycles  int64
}

// Stats aggregates countable events across the run.
type Stats struct {
	Cycles       int64
	ActiveCycles int64
	StallCycles  int64
	MACs         int64
	Adds         int64

	// MemStallCycles and OffloadStallCycles attribute blocked time across
	// cores (where does the time go: compute, memory, or waiting on the
	// MZIM control unit).
	MemStallCycles     int64
	OffloadStallCycles int64

	L1iAccesses  int64
	L1dAccesses  int64
	L1dMisses    int64
	L2Accesses   int64
	L2Misses     int64
	L3Accesses   int64
	L3Misses     int64
	DRAMAccesses int64

	OffloadsRequested int64
	OffloadsAccepted  int64

	Net noc.Counters
}

// event is a scheduled action: fn, or when fn is nil, the next step of a
// line transaction.
type event struct {
	at  int64
	fn  func()
	txn *lineTxn
}

// delivery is what runs when a packet sent by SendPacket arrives: fn, or
// when fn is nil, the next step of a line transaction (nil for neither).
type delivery struct {
	fn      func(int64)
	txn     *lineTxn
	arrived bool
}

// recurringEvent fires every period cycles for the lifetime of the run; it
// does not keep the simulation alive (used for the control unit's τ
// evaluation loop).
type recurringEvent struct {
	period int64
	next   int64
	fn     func()
}

// eventHeap is a binary min-heap of events ordered by at. The heap is not
// stable: events due on the same cycle fire in an order fixed by the
// sequence of pushes and pops. push and pop repeat container/heap's
// sift-up and sift-down step for step, so that order, and with it every
// simulated result, is the one container/heap gives, without boxing each
// event in an interface.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	j := len(q) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && q[r].at < q[j].at {
			j = r
		}
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	e := q[n]
	q[n] = event{}
	*h = q[:n]
	return e
}

// NewSystem builds a system over the given network. The network must have
// one endpoint per chiplet.
func NewSystem(cfg Config, net noc.Network) *System {
	if cfg.Cores%cfg.Chiplets != 0 {
		panic("chip: cores must divide evenly across chiplets")
	}
	if net.Nodes() != cfg.Chiplets {
		panic(fmt.Sprintf("chip: network has %d nodes, need %d chiplets", net.Nodes(), cfg.Chiplets))
	}
	s := &System{
		cfg:    cfg,
		net:    net,
		mcFree: make([]int64, cfg.Chiplets),
		sendQ:  make([]fifo[*noc.Packet], cfg.Chiplets),
		wake:   make([]int64, cfg.Cores),
	}
	if cfg.CyclesPerMAC < 1 {
		s.cfg.CyclesPerMAC = 1
	}
	if cfg.DRAMServiceCycles < 1 {
		s.cfg.DRAMServiceCycles = 1
	}
	perChiplet := cfg.Cores / cfg.Chiplets
	for c := 0; c < cfg.Cores; c++ {
		s.cores = append(s.cores, &coreState{
			id:      c,
			chiplet: c / perChiplet,
			stream:  EmptyStream{},
			l1i:     NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
			l1d:     NewCache(cfg.L1Bytes, cfg.L1Ways, cfg.LineBytes),
			l2:      NewCache(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes),
		})
	}
	for ch := 0; ch < cfg.Chiplets; ch++ {
		s.l3 = append(s.l3, NewCache(cfg.L3SliceBytes, cfg.L3Ways, cfg.LineBytes))
	}
	net.SetSink(s.onDeliver)
	return s
}

// SetStream assigns core's op stream (before Run).
func (s *System) SetStream(core int, st Stream) { s.cores[core].stream = st }

// SetOffloadHandler installs the Flumen control-unit hook.
func (s *System) SetOffloadHandler(h OffloadHandler) { s.handler = h }

// Network returns the underlying NoP.
func (s *System) Network() noc.Network { return s.net }

// Now returns the current cycle.
func (s *System) Now() int64 { return s.now }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// ChargeDRAM accounts additional DRAM line fetches performed by agents
// outside the cores (e.g. the MZIM control unit loading precomputed phase
// mappings from its matrix memory backing store, Sec 3.4).
func (s *System) ChargeDRAM(linesFetched int) {
	s.stats.DRAMAccesses += int64(linesFetched)
}

// ScheduleEvent runs fn at the given absolute cycle (≥ now).
func (s *System) ScheduleEvent(at int64, fn func()) {
	s.schedule(event{at: at, fn: fn})
}

func (s *System) schedule(e event) {
	if e.at < s.now {
		e.at = s.now
	}
	s.events.push(e)
}

// ScheduleRecurring runs fn every period cycles until the run ends.
// Recurring events do not keep the simulation alive.
func (s *System) ScheduleRecurring(period int64, fn func()) {
	if period <= 0 {
		panic("chip: recurring period must be positive")
	}
	s.recurring = append(s.recurring, &recurringEvent{period: period, next: s.now + period, fn: fn})
}

// SendPacket queues a packet for injection at the given source node. Used
// both internally (memory traffic) and by the Flumen control unit (operand
// and result streaming).
func (s *System) SendPacket(p *noc.Packet, onDeliver func(now int64)) {
	s.send(p, delivery{fn: onDeliver})
}

func (s *System) send(p *noc.Packet, d delivery) {
	p.ID = s.pktID
	s.pktID++
	s.pending.push(d)
	s.inFlight++
	s.queued++
	s.sendQ[p.Src].push(p)
}

// onDeliver dispatches delivered packets to their callbacks.
func (s *System) onDeliver(p *noc.Packet, now int64) {
	s.inFlight--
	i := p.ID - s.pendingBase
	if i < 0 || i >= int64(s.pending.len()) {
		return
	}
	d := s.pending.at(int(i))
	if d.arrived {
		return
	}
	fn, t := d.fn, d.txn
	*d = delivery{arrived: true}
	for s.pending.len() > 0 && s.pending.at(0).arrived {
		s.pending.pop()
		s.pendingBase++
	}
	if fn != nil {
		fn(now)
	} else if t != nil {
		s.advance(t, now)
	}
}

// Run executes all op streams to completion and returns the statistics.
func (s *System) Run() Stats {
	for {
		if s.nDone == len(s.cores) && s.inFlight == 0 && len(s.events) == 0 {
			break
		}
		if s.now >= s.cfg.MaxCycles {
			panic(fmt.Sprintf("chip: simulation exceeded MaxCycles=%d", s.cfg.MaxCycles))
		}
		s.now++
		// Fire due events.
		for len(s.events) > 0 && s.events[0].at <= s.now {
			e := s.events.pop()
			if e.fn != nil {
				e.fn()
			} else {
				s.advance(e.txn, s.now)
			}
		}
		for _, r := range s.recurring {
			if r.next <= s.now {
				r.fn()
				r.next = s.now + r.period
			}
		}
		// Barrier release.
		s.releaseBarrier()
		// Advance cores.
		for i, w := range s.wake {
			if w <= s.now {
				s.stepCore(s.cores[i])
			}
		}
		if s.queued > 0 {
			s.inject()
		}
		s.net.Step(s.now)
		s.sampleUtilization()
		s.fastForward()
	}
	return s.collect()
}

// inject offers each node's queued packets to the network in order until
// the network refuses one.
func (s *System) inject() {
	for node := range s.sendQ {
		q := &s.sendQ[node]
		for q.len() > 0 && s.net.Inject(*q.at(0), s.now) {
			q.pop()
			s.queued--
		}
	}
}

// fifo is a first-in first-out queue that keeps its backing array: taking
// from the front advances head, and a push into a full array first moves
// the live entries down. Once grown to its largest backlog it stops
// allocating.
type fifo[T any] struct {
	buf  []T
	head int // buf[:head] has been taken
}

func (q *fifo[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// at returns the i-th entry from the front.
func (q *fifo[T]) at(i int) *T { return &q.buf[q.head+i] }

// pop drops the front entry.
func (q *fifo[T]) pop() {
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
}

// fastForward jumps over quiescent stretches: no packets in flight, no
// pending sends, no events earlier than the next core wake-up.
func (s *System) fastForward() {
	if s.inFlight > 0 || s.queued > 0 {
		return
	}
	next := int64(1 << 62)
	for _, c := range s.cores {
		if c.done {
			continue
		}
		if c.blockedOn > 0 || c.offload || c.atBarrier {
			return // waiting on something event-driven; don't skip
		}
		if c.readyAt < next {
			next = c.readyAt
		}
	}
	if len(s.events) > 0 && s.events[0].at < next {
		next = s.events[0].at
	}
	for _, r := range s.recurring {
		if r.next < next {
			next = r.next
		}
	}
	if next > s.now+1 && next < 1<<62 {
		s.now = next - 1
	}
}

// releaseBarrier lets the cores waiting at a barrier go once every core
// has either arrived there or finished. A core at a barrier cannot finish,
// so the two counts never overlap.
func (s *System) releaseBarrier() {
	if s.nBarrier > 0 && s.nDone+s.nBarrier == len(s.cores) {
		for _, c := range s.cores {
			c.atBarrier = false
			s.setWake(c)
		}
		s.nBarrier = 0
	}
}

// setWake refreshes wake for c after its issue state changed.
func (s *System) setWake(c *coreState) {
	w := int64(math.MaxInt64)
	if !c.done && c.blockedOn == 0 && !c.offload && !c.atBarrier {
		w = c.readyAt
	}
	s.wake[c.id] = w
}

func (s *System) stepCore(c *coreState) {
	for !c.done && c.blockedOn == 0 && !c.offload && !c.atBarrier && c.readyAt <= s.now {
		if !c.curValid {
			op, ok := c.stream.Next()
			if !ok {
				c.done = true
				c.doneAt = s.now
				s.nDone++
				break
			}
			c.cur = op
			c.curValid = true
			c.lineIdx = 0
			c.l1iAccesses++
			c.l1i.Access(uint64(c.id)<<40 | uint64(c.l1iAccesses%512)<<6)
		}
		s.execOp(c)
	}
	s.setWake(c)
}

func (s *System) execOp(c *coreState) {
	op := &c.cur
	switch op.Kind {
	case KindMAC:
		cycles := op.N * s.cfg.CyclesPerMAC
		if cycles < 1 {
			cycles = 1
		}
		c.readyAt = s.now + cycles
		c.activeCycles += cycles
		c.macs += op.N
		c.curValid = false
	case KindAdd:
		cycles := (op.N + 3) / 4
		if cycles < 1 {
			cycles = 1
		}
		c.readyAt = s.now + cycles
		c.activeCycles += cycles
		c.adds += op.N
		c.curValid = false
	case KindCompute:
		if op.N < 1 {
			op.N = 1
		}
		c.readyAt = s.now + op.N
		c.activeCycles += op.N
		c.curValid = false
	case KindLoadBlock, KindStoreBlock:
		s.execBlock(c)
	case KindBarrier:
		c.atBarrier = true
		s.nBarrier++
		c.curValid = false
	case KindOffload:
		s.stats.OffloadsRequested++
		if s.handler == nil {
			panic("chip: KindOffload op without an offload handler")
		}
		c.offloadBlockedSince = s.now
		accepted := s.handler(c.id, op.Job, s.now, func() {
			c.offload = false
			c.readyAt = s.now
			c.offloadStallCycles += s.now - c.offloadBlockedSince
			s.setWake(c)
		})
		c.curValid = false
		if accepted {
			s.stats.OffloadsAccepted++
			c.offload = true
		} else if fb, ok := op.Job.(FallbackJob); ok {
			// Rejected: execute the equivalent MACs locally.
			c.cur = Op{Kind: KindMAC, N: fb.FallbackMACs()}
			c.curValid = true
		}
	default:
		panic(fmt.Sprintf("chip: unknown op kind %d", op.Kind))
	}
}

// execBlock streams the lines of a block op through the hierarchy. Loads:
// L1/L2 hits cost pipelined local latency; deeper accesses launch
// transactions (burst, modelling prefetch/MLP) and the op completes when
// all responses have returned. Stores are write-combining and
// non-blocking: lines allocate locally and dirty data drains to memory in
// the background (write-back packets and DRAM energy are charged, but the
// core does not stall).
func (s *System) execBlock(c *coreState) {
	op := &c.cur
	store := op.Kind == KindStoreBlock
	var localLat int64
	for ; c.lineIdx < op.Lines; c.lineIdx++ {
		addr := op.Addr + uint64(c.lineIdx*s.cfg.LineBytes)
		if store {
			// Write-combining: hits coalesce in the cache; only newly
			// allocated dirty lines eventually write back to memory.
			hit := c.l1d.Access(addr)
			if !hit {
				hit = c.l2.Access(addr)
			}
			localLat += s.cfg.L1HitCycles
			if !hit {
				s.stats.DRAMAccesses++ // eventual write-back
				// Coalesced write-back burst every eight lines.
				if c.lineIdx%8 == 0 {
					mc := s.nearestMC(c.chiplet)
					if mc != c.chiplet {
						s.SendPacket(&noc.Packet{Src: c.chiplet, Dst: mc, Bits: s.cfg.RespBits}, nil)
					}
				}
			}
			continue
		}
		if c.l1d.Access(addr) {
			localLat += s.cfg.L1HitCycles
			continue
		}
		if c.l2.Access(addr) {
			localLat += s.cfg.L2HitCycles
			continue
		}
		// Miss beyond L2: goes to the L3 home slice.
		s.launchLineTxn(c, addr)
	}
	if localLat < 1 {
		localLat = 1
	}
	c.readyAt = s.now + localLat
	c.activeCycles += localLat
	c.curValid = false
}

// lineTxn is one line transaction beyond L2: the request to the L3 home
// slice, on an L3 miss a forward to the nearest memory controller and the
// DRAM access, then the data response back to the core. The legs run one
// after another, so a single record, with a single packet, carries the
// whole transaction; finished records are pooled.
type lineTxn struct {
	c    *coreState
	addr uint64
	home int // L3 home chiplet
	src  int // where the pending response leg starts
	mc   int
	step txnStep // what runs when the pending event fires or packet arrives
	pkt  noc.Packet
	next *lineTxn // free list
}

type txnStep uint8

const (
	txnL3      txnStep = iota // look the line up in the home L3 slice
	txnForward                // send the miss on to the memory controller
	txnDRAM                   // queue for the memory controller's channel
	txnReturn                 // the DRAM access is done: respond from the controller
	txnRespond                // send the data response to the core
	txnFinish                 // the data has reached the core
)

// launchLineTxn issues the request/response chain for one line.
func (s *System) launchLineTxn(c *coreState, addr uint64) {
	line := addr / uint64(s.cfg.LineBytes)
	home := int(line % uint64(s.cfg.Chiplets))
	if c.blockedOn == 0 {
		c.memBlockedSince = s.now
	}
	c.blockedOn++

	t := s.freeTxn
	if t != nil {
		s.freeTxn = t.next
	} else {
		t = new(lineTxn)
	}
	*t = lineTxn{c: c, addr: addr, home: home, step: txnL3}
	if home == c.chiplet {
		s.schedule(event{at: s.now + 1, txn: t})
		return
	}
	s.sendTxn(t, c.chiplet, home, s.cfg.ReqBits)
}

// sendTxn sends a transaction's next leg as a packet; its pending step
// runs on delivery.
func (s *System) sendTxn(t *lineTxn, src, dst, bits int) {
	t.pkt = noc.Packet{Src: src, Dst: dst, Bits: bits}
	s.send(&t.pkt, delivery{txn: t})
}

// advance runs a transaction's pending step at cycle now.
func (s *System) advance(t *lineTxn, now int64) {
	cfg := &s.cfg
	switch t.step {
	case txnL3:
		hit := s.l3[t.home].Access(t.addr)
		after := now + cfg.L3HitCycles
		if hit {
			s.respond(t, t.home, after)
			return
		}
		// DRAM: forward to the nearest memory controller. Each channel has
		// finite bandwidth: one line per DRAMServiceCycles.
		t.mc = s.nearestMC(t.home)
		s.stats.DRAMAccesses++
		if t.mc == t.home {
			t.step = txnDRAM
			s.advance(t, after)
			return
		}
		// Forward to the controller after the L3 lookup latency.
		t.step = txnForward
		s.schedule(event{at: after, txn: t})
	case txnForward:
		t.step = txnDRAM
		s.sendTxn(t, t.home, t.mc, cfg.ReqBits)
	case txnDRAM:
		start := now
		if s.mcFree[t.mc] > start {
			start = s.mcFree[t.mc]
		}
		s.mcFree[t.mc] = start + cfg.DRAMServiceCycles
		t.step = txnReturn
		s.schedule(event{at: start + cfg.DRAMCycles, txn: t})
	case txnReturn:
		s.respond(t, t.mc, now)
	case txnRespond:
		t.step = txnFinish
		s.sendTxn(t, t.src, t.c.chiplet, cfg.RespBits)
	case txnFinish:
		c := t.c
		c.blockedOn--
		if c.blockedOn == 0 {
			if c.readyAt < now {
				c.readyAt = now
			}
			c.memStallCycles += now - c.memBlockedSince
			s.setWake(c)
		}
		*t = lineTxn{next: s.freeTxn}
		s.freeTxn = t
	}
}

// respond returns the line's data from src to the core (or completes
// locally) after the given time.
func (s *System) respond(t *lineTxn, src int, at int64) {
	if src == t.c.chiplet {
		t.step = txnFinish
	} else {
		t.src = src
		t.step = txnRespond
	}
	s.schedule(event{at: at, txn: t})
}

func (s *System) nearestMC(chiplet int) int {
	best := s.cfg.MemControllers[0]
	bestD := 1 << 30
	for _, mc := range s.cfg.MemControllers {
		d := mc - chiplet
		if d < 0 {
			d = -d
		}
		if d < bestD {
			bestD = d
			best = mc
		}
	}
	return best
}

func (s *System) sampleUtilization() {
	if s.cfg.UtilWindow <= 0 || s.now%s.cfg.UtilWindow != 0 {
		return
	}
	c := s.net.Counters()
	busy := c.LinkBusyCycles
	delta := busy - s.lastBusy
	s.lastBusy = busy
	denom := float64(s.cfg.UtilWindow) * float64(c.LinkCount)
	if denom > 0 {
		s.samples = append(s.samples, float64(delta)/denom)
	}
}

// UtilizationSamples returns the per-window link utilizations (Fig. 1).
func (s *System) UtilizationSamples() []float64 { return s.samples }

func (s *System) collect() Stats {
	st := s.stats
	st.Cycles = s.now
	for _, c := range s.cores {
		st.ActiveCycles += c.activeCycles
		end := c.doneAt
		if end == 0 {
			end = s.now
		}
		stall := end - c.activeCycles
		if stall < 0 {
			stall = 0
		}
		st.StallCycles += stall
		st.MemStallCycles += c.memStallCycles
		st.OffloadStallCycles += c.offloadStallCycles
		st.MACs += c.macs
		st.Adds += c.adds
		st.L1iAccesses += c.l1iAccesses
		st.L1dAccesses += c.l1d.Accesses
		st.L1dMisses += c.l1d.Misses
		st.L2Accesses += c.l2.Accesses
		st.L2Misses += c.l2.Misses
	}
	for _, l3 := range s.l3 {
		st.L3Accesses += l3.Accesses
		st.L3Misses += l3.Misses
	}
	st.Net = s.net.Counters()
	return st
}
