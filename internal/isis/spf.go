package isis

import (
	"cmp"
	"encoding/binary"
	"math/bits"
	"net/netip"
	"slices"
	"sync"
	"time"
)

// SPF numbers the LSDB's origins by their position in Engine.origins, runs
// Dijkstra over a binary heap on that numbering, and carries each node's
// first hops as a bitset over the engine's up circuits. All of its working
// memory is borrowed from spfPool: engines in a settled network run SPF
// rarely, so per-engine scratch would hold memory for nothing, while one
// pool is shared by every engine (and every replica lane) in the process.

// sysKey packs a system ID big-endian, so key order is byte order.
func sysKey(id SystemID) uint64 {
	var b [8]byte
	copy(b[2:], id[:])
	return binary.BigEndian.Uint64(b[:])
}

func sysIDFromKey(k uint64) SystemID {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], k)
	var id SystemID
	copy(id[:], b[2:])
	return id
}

// prefixKey packs an IPv4 prefix as address<<8 | length, so key order is
// the (address, length) order routes are delivered in.
func prefixKey(p netip.Prefix) uint64 {
	a := p.Addr().As4()
	return uint64(binary.BigEndian.Uint32(a[:]))<<8 | uint64(p.Bits())
}

func prefixFromKey(k uint64) netip.Prefix {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], uint32(k>>8))
	return netip.PrefixFrom(netip.AddrFrom4(a), int(k&0xff))
}

// heapItem is a tentative distance to node i; items whose distance is
// stale are skipped when popped (lazy deletion).
type heapItem struct {
	d uint32
	i int32
}

// before orders the heap by distance, ties by node index, which is
// system-ID order.
func (a heapItem) before(b heapItem) bool {
	return a.d < b.d || a.d == b.d && a.i < b.i
}

// prefixCand is one origin's offer of a prefix at a total metric.
type prefixCand struct {
	key    uint64
	metric uint32
	node   int32
}

// outRoute is one result route in scratch; its next hops are nhs[lo:hi].
type outRoute struct {
	key    uint64
	metric uint32
	lo, hi int
}

// spfScratch is the working memory of one SPF run.
type spfScratch struct {
	lsps     []*LSP // per node
	dist     []uint32
	seen     []bool // dist is set
	done     []bool // settled
	hasLocal []bool // some up circuit leads to the node
	localMin []uint32
	// hops and local hold w words per node: the first hops reaching the
	// node, and the lowest-metric up circuits leading straight to it. Bit
	// b stands for up[b].
	hops  []uint64
	local []uint64
	union []uint64
	// up lists the up circuits in next-hop order (neighbour address, then
	// interface name), so a bitset's set bits come out sorted.
	up    []*circuit
	heap  []heapItem
	cands []prefixCand
	out   []outRoute
	nhs   []NextHop
}

var spfPool = sync.Pool{New: func() any { return new(spfScratch) }}

// resize returns s with length n, reusing its backing array when large
// enough; the contents are not reset.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *spfScratch) push(it heapItem) {
	s.heap = append(s.heap, it)
	h := s.heap
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !h[j].before(h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func (s *spfScratch) pop() heapItem {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		m := 2*j + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[j]) {
			break
		}
		h[j], h[m] = h[m], h[j]
		j = m
	}
	s.heap = h
	return top
}

// RunSPF computes shortest paths over the LSDB and delivers routes. It is
// exported for tests and for forced recomputation.
func (e *Engine) RunSPF() {
	e.SPFRuns++
	e.cSPFRuns.Inc()
	var spfStart time.Time
	if e.obs != nil {
		spfStart = time.Now()
		defer func() { e.hSPFNanos.Observe(time.Since(spfStart).Nanoseconds()) }()
	}
	s := spfPool.Get().(*spfScratch)
	e.spf(s)
	if e.cfg.OnRoutes != nil && !(e.hasDelivered && e.sameAsDelivered(s)) {
		// Deliver only on change: an SPF whose result matches the last
		// delivery (LSP refresh waves, redundant floods) must not rewrite
		// the RIB — a rewrite bumps the FIB generation and reads as routing
		// activity to convergence detection.
		e.delivered = s.routes()
		e.hasDelivered = true
		e.cfg.OnRoutes(e.delivered)
	}
	clear(s.lsps)
	clear(s.up)
	spfPool.Put(s)
}

// spf leaves the route set for the current LSDB in s.out and s.nhs,
// ordered by prefix.
func (e *Engine) spf(s *spfScratch) {
	s.out, s.nhs, s.cands, s.heap = s.out[:0], s.nhs[:0], s.cands[:0], s.heap[:0]
	s.up = s.up[:0]
	origins := e.originOrder()
	n := len(origins)
	self, ok := slices.BinarySearch(origins, sysKey(e.cfg.SystemID))
	if !ok {
		return // no own LSP yet: nothing is reachable
	}
	s.lsps = resize(s.lsps, n)
	for i, k := range origins {
		s.lsps[i] = e.lsdb[sysIDFromKey(k)]
	}
	index := func(id SystemID) (int, bool) { return slices.BinarySearch(origins, sysKey(id)) }

	for _, c := range e.ordered {
		if c.state == adjUp {
			s.up = append(s.up, c)
		}
	}
	// Insertion sort: circuits are few, and ordered is by name already.
	for i := 1; i < len(s.up); i++ {
		for j := i; j > 0 && s.up[j].nbrIP.Less(s.up[j-1].nbrIP); j-- {
			s.up[j], s.up[j-1] = s.up[j-1], s.up[j]
		}
	}
	w := max(1, (len(s.up)+63)/64)
	set := func(words []uint64, node int) []uint64 { return words[node*w : node*w+w] }

	s.dist = resize(s.dist, n)
	s.seen, s.done, s.hasLocal = resize(s.seen, n), resize(s.done, n), resize(s.hasLocal, n)
	clear(s.seen)
	clear(s.done)
	clear(s.hasLocal)
	s.localMin = resize(s.localMin, n)
	s.hops, s.local, s.union = resize(s.hops, n*w), resize(s.local, n*w), resize(s.union, w)
	clear(s.local)

	// Only the lowest-metric up circuits toward a neighbour are first hops
	// to it: a costlier parallel link is not an equal-cost path.
	for b, c := range s.up {
		v, ok := index(c.nbr)
		if !ok {
			continue
		}
		m, lv := c.cfg.Metric, set(s.local, v)
		if !s.hasLocal[v] || m < s.localMin[v] {
			s.hasLocal[v], s.localMin[v] = true, m
			clear(lv)
		}
		if m == s.localMin[v] {
			lv[b/64] |= 1 << (b % 64)
		}
	}

	s.dist[self], s.seen[self] = 0, true
	s.push(heapItem{0, int32(self)})
	for len(s.heap) > 0 {
		it := s.pop()
		u := int(it.i)
		if s.done[u] || it.d != s.dist[u] {
			continue
		}
		s.done[u] = true
		uid := sysIDFromKey(origins[u])
		from := set(s.hops, u)
		for _, nb := range s.lsps[u].Neighbors {
			v, ok := index(nb.ID)
			// Two-way check: an edge counts only if the far end reports
			// it too.
			if !ok || !reports(s.lsps[v], uid) {
				continue
			}
			if u == self {
				from = set(s.local, v)
			}
			nd, hv := s.dist[u]+nb.Metric, set(s.hops, v)
			switch {
			case !s.seen[v] || nd < s.dist[v]:
				s.dist[v], s.seen[v] = nd, true
				copy(hv, from)
				s.push(heapItem{nd, int32(v)})
			case nd == s.dist[v]:
				for i := range hv {
					hv[i] |= from[i]
				}
			}
		}
	}

	for v := range n {
		if v == self || !s.seen[v] || !anySet(set(s.hops, v)) {
			continue
		}
		for _, pr := range s.lsps[v].Prefixes {
			// Remote LSPs come from Decode, whose prefixes are masked IPv4.
			if pr.Prefix.Addr().Is4() {
				s.cands = append(s.cands, prefixCand{prefixKey(pr.Prefix), s.dist[v] + pr.Metric, int32(v)})
			}
		}
	}
	slices.SortFunc(s.cands, func(a, b prefixCand) int { return cmp.Compare(a.key, b.key) })
	own := e.own
	for i := 0; i < len(s.cands); {
		key, best, j := s.cands[i].key, s.cands[i].metric, i+1
		for ; j < len(s.cands) && s.cands[j].key == key; j++ {
			best = min(best, s.cands[j].metric)
		}
		group := s.cands[i:j]
		i = j
		// Real IS-IS does not install routes to its own prefixes (and
		// connected would win anyway).
		for len(own) > 0 && own[0] < key {
			own = own[1:]
		}
		if len(own) > 0 && own[0] == key {
			continue
		}
		clear(s.union)
		for _, c := range group {
			if c.metric == best {
				for k, x := range set(s.hops, int(c.node)) {
					s.union[k] |= x
				}
			}
		}
		lo := len(s.nhs)
		for k, x := range s.union {
			for ; x != 0; x &= x - 1 {
				c := s.up[k*64+bits.TrailingZeros64(x)]
				s.nhs = append(s.nhs, NextHop{IP: c.nbrIP, Interface: c.cfg.Name})
			}
		}
		s.out = append(s.out, outRoute{key: key, metric: best, lo: lo, hi: len(s.nhs)})
	}
}

// reports reports whether lsp lists id as a neighbour.
func reports(lsp *LSP, id SystemID) bool {
	for _, n := range lsp.Neighbors {
		if n.ID == id {
			return true
		}
	}
	return false
}

func anySet(words []uint64) bool {
	for _, x := range words {
		if x != 0 {
			return true
		}
	}
	return false
}

// sameAsDelivered reports whether the result in s equals e.delivered.
func (e *Engine) sameAsDelivered(s *spfScratch) bool {
	if len(e.delivered) != len(s.out) {
		return false
	}
	for i, o := range s.out {
		d := &e.delivered[i]
		if d.Metric != o.metric || d.Prefix != prefixFromKey(o.key) ||
			!slices.Equal(d.NextHops, s.nhs[o.lo:o.hi]) {
			return false
		}
	}
	return true
}

// routes copies the result out of scratch: one route slice and one shared
// next-hop array, each route's hops capped so appends cannot run into the
// next route's.
func (s *spfScratch) routes() []Route {
	out := make([]Route, len(s.out))
	nhs := slices.Clone(s.nhs)
	for i, o := range s.out {
		out[i] = Route{Prefix: prefixFromKey(o.key), Metric: o.metric, NextHops: nhs[o.lo:o.hi:o.hi]}
	}
	return out
}
