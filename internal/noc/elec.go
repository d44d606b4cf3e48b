package noc

import "fmt"

// elecNet is an input-queued, credit-based virtual cut-through electrical
// network over an arbitrary directed link graph with deterministic routing.
// Both the ring and the 2D mesh instantiate it. Each directed link owns an
// input buffer at its downstream router; packets serialize over links at
// the link width and incur a fixed router pipeline latency per hop.
type elecNet struct {
	name          string
	nodes         int
	widthBits     int
	bufPkts       int
	routerLatency int64
	injectCap     int

	links []elecLink
	// next[cur*nodes+dst] is the link index to take from cur toward dst,
	// or -1 for local delivery.
	next []int

	injectQ [][]*Packet
	feeders [][]feeder // per-node candidate queues
	// waiting[node] counts the packets queued at a router: its injection
	// queue plus the input buffers of its incoming links. A router with
	// none has nothing to transmit, so its outgoing links are skipped.
	waiting []int
	// inNet counts packets anywhere in the network (queued or in flight);
	// Step does nothing while it is zero. flying and buffered count the
	// packets on links and in link input buffers, so the landing and
	// ejection passes are skipped when they have nothing to do.
	inNet    int
	flying   int
	buffered int
	sink     func(*Packet, int64)
	counters Counters
}

// feeder is a candidate packet source at a router: the injection queue
// (srcLink nil) or the input buffer of an incoming link.
type feeder struct {
	q       *[]*Packet
	srcLink *elecLink
}

type elecLink struct {
	from, to  int
	busyUntil int64
	credits   int
	queue     []*Packet // input buffer at the downstream router
	arrivals  []arrival // in flight
	rrPtr     int       // round-robin over upstream feeder queues
}

type arrival struct {
	p  *Packet
	at int64
}

func newElecNet(name string, nodes, widthBits, bufPkts, injectCap int, routerLatency int64) *elecNet {
	n := &elecNet{
		name: name, nodes: nodes, widthBits: widthBits, bufPkts: bufPkts,
		routerLatency: routerLatency, injectCap: injectCap,
		injectQ: make([][]*Packet, nodes),
		waiting: make([]int, nodes),
	}
	return n
}

// setRoute tabulates the deterministic routing function (the link index
// to take from cur toward dst, or -1 for local delivery) and the feeder
// queues of every router. It runs once, after all links are added.
func (n *elecNet) setRoute(route func(cur, dst int) int) {
	n.next = make([]int, n.nodes*n.nodes)
	for cur := 0; cur < n.nodes; cur++ {
		for dst := 0; dst < n.nodes; dst++ {
			n.next[cur*n.nodes+dst] = route(cur, dst)
		}
	}
	n.feeders = make([][]feeder, n.nodes)
	for v := 0; v < n.nodes; v++ {
		fs := []feeder{{q: &n.injectQ[v]}}
		for i := range n.links {
			if l := &n.links[i]; l.to == v {
				fs = append(fs, feeder{q: &l.queue, srcLink: l})
			}
		}
		n.feeders[v] = fs
	}
}

func (n *elecNet) addLink(from, to int) int {
	n.links = append(n.links, elecLink{from: from, to: to, credits: n.bufPkts})
	return len(n.links) - 1
}

func (n *elecNet) Name() string { return n.name }
func (n *elecNet) Nodes() int   { return n.nodes }

func (n *elecNet) SetSink(f func(*Packet, int64)) { n.sink = f }

func (n *elecNet) Counters() Counters {
	c := n.counters
	c.LinkCount = len(n.links)
	return c
}

func (n *elecNet) Inject(p *Packet, now int64) bool {
	validatePacket(p, n.nodes)
	if p.Multicast != nil {
		panic("noc: electrical networks replicate multicast at the source; expand before injecting")
	}
	if len(n.injectQ[p.Src]) >= n.injectCap {
		return false
	}
	p.InjectCycle = now
	n.injectQ[p.Src] = append(n.injectQ[p.Src], p)
	n.waiting[p.Src]++
	n.inNet++
	n.counters.InjectedPackets++
	return true
}

func (n *elecNet) deliver(p *Packet, now int64) {
	n.inNet--
	p.RecvCycle = now
	n.counters.DeliveredPackets++
	if n.sink != nil {
		n.sink(p, now)
	}
}

func (n *elecNet) Step(now int64) {
	if n.inNet == 0 {
		return
	}
	// 1. Land in-flight packets into downstream buffers (slots were
	// reserved at send time).
	for i := 0; i < len(n.links) && n.flying > 0; i++ {
		l := &n.links[i]
		if len(l.arrivals) == 0 {
			continue
		}
		kept := l.arrivals[:0]
		for _, a := range l.arrivals {
			if a.at <= now {
				l.queue = append(l.queue, a.p)
				n.waiting[l.to]++
				n.flying--
				n.buffered++
			} else {
				kept = append(kept, a)
			}
		}
		clear(l.arrivals[len(kept):])
		l.arrivals = kept
	}
	// 2. Eject packets that have reached their destination.
	for node := 0; node < n.nodes; node++ {
		// Injection queue heads destined to self.
		if len(n.injectQ[node]) > 0 && n.injectQ[node][0].Dst == node {
			p := n.injectQ[node][0]
			n.injectQ[node] = removeAt(n.injectQ[node], 0)
			n.waiting[node]--
			n.deliver(p, now)
		}
	}
	for i := 0; i < len(n.links) && n.buffered > 0; i++ {
		l := &n.links[i]
		if len(l.queue) > 0 && l.queue[0].Dst == l.to {
			p := l.queue[0]
			l.queue = removeAt(l.queue, 0)
			l.credits++
			n.waiting[l.to]--
			n.buffered--
			n.deliver(p, now)
		}
	}
	// 3. Transmit: each free link picks one waiting packet (round-robin
	// over the feeder queues of its upstream router).
	for li := range n.links {
		l := &n.links[li]
		if l.busyUntil > now || l.credits <= 0 || n.waiting[l.from] == 0 {
			continue
		}
		feeders := n.feeders[l.from]
		for k := 0; k < len(feeders); k++ {
			qi := (l.rrPtr + k) % len(feeders)
			f := feeders[qi]
			if len(*f.q) == 0 {
				continue
			}
			p := (*f.q)[0]
			if n.next[l.from*n.nodes+p.Dst] != li {
				continue
			}
			// Bubble rule: packets entering the network from the injection
			// queue need two free downstream slots, preventing ring
			// deadlock under virtual cut-through.
			injecting := f.srcLink == nil
			if injecting && l.credits < 2 {
				continue
			}
			*f.q = removeAt(*f.q, 0)
			n.waiting[l.from]--
			if !injecting {
				// Free the slot in the buffer the packet came from.
				f.srcLink.credits++
				n.buffered--
			}
			ser := serCycles(p.Bits, n.widthBits)
			l.busyUntil = now + ser
			l.credits--
			l.arrivals = append(l.arrivals, arrival{p: p, at: now + ser + n.routerLatency})
			n.flying++
			n.counters.BitHops += int64(p.Bits)
			n.counters.LinkBusyCycles += ser
			l.rrPtr = (qi + 1) % len(feeders)
			break
		}
	}
}

// NewRing builds a bidirectional electrical ring of `nodes` endpoints with
// shortest-direction routing and bubble flow control. Link width is in
// bits per cycle.
func NewRing(nodes, widthBits, bufPkts int) Network {
	if nodes < 2 {
		panic("noc: ring needs at least 2 nodes")
	}
	n := newElecNet("Ring", nodes, widthBits, bufPkts, 16, 1)
	cw := make([]int, nodes)  // link index node -> node+1
	ccw := make([]int, nodes) // link index node -> node-1
	for i := 0; i < nodes; i++ {
		cw[i] = n.addLink(i, (i+1)%nodes)
	}
	for i := 0; i < nodes; i++ {
		ccw[i] = n.addLink(i, (i-1+nodes)%nodes)
	}
	n.setRoute(func(cur, dst int) int {
		if cur == dst {
			return -1
		}
		fwd := (dst - cur + nodes) % nodes
		if fwd <= nodes-fwd {
			return cw[cur]
		}
		return ccw[cur]
	})
	return n
}

// NewMesh builds a rows×cols electrical 2D mesh with XY dimension-order
// routing.
func NewMesh(rows, cols, widthBits, bufPkts int) Network {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("noc: mesh needs at least 2 nodes")
	}
	nodes := rows * cols
	n := newElecNet("Mesh", nodes, widthBits, bufPkts, 16, 1)
	type dirLinks struct{ e, w, s, no int }
	dl := make([]dirLinks, nodes)
	for i := range dl {
		dl[i] = dirLinks{e: -1, w: -1, s: -1, no: -1}
	}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				dl[id(r, c)].e = n.addLink(id(r, c), id(r, c+1))
				dl[id(r, c+1)].w = n.addLink(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				dl[id(r, c)].s = n.addLink(id(r, c), id(r+1, c))
				dl[id(r+1, c)].no = n.addLink(id(r+1, c), id(r, c))
			}
		}
	}
	n.setRoute(func(cur, dst int) int {
		if cur == dst {
			return -1
		}
		cr, cc := cur/cols, cur%cols
		dr, dc := dst/cols, dst%cols
		switch {
		case dc > cc:
			return dl[cur].e
		case dc < cc:
			return dl[cur].w
		case dr > cr:
			return dl[cur].s
		case dr < cr:
			return dl[cur].no
		}
		panic(fmt.Sprintf("noc: mesh routing stuck at %d toward %d", cur, dst))
	})
	return n
}
