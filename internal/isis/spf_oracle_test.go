package isis

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mfv/internal/sim"
)

// spfCase is one randomly generated LSDB around a router under test.
type spfCase struct {
	e      *Engine
	got    []Route // last route set delivered by e
	ids    []SystemID
	pool   []netip.Prefix
	nextID int
}

// newSPFCase builds an engine whose LSDB holds 2–40 routers: random
// two-way, one-way and parallel (equal- and unequal-cost) adjacencies with
// metrics 1–63, unreachable islands, prefixes advertised by several origins
// at different metrics, and the router's own prefixes advertised by
// neighbours. Its local circuits are set up (or down) directly, and its own
// LSP is originated from them as the engine would.
func newSPFCase(rng *rand.Rand) *spfCase {
	n := 2 + rng.Intn(39)
	c := &spfCase{nextID: 600} // above every ID drawn below
	perm := rng.Perm(500)
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, sysID(perm[i]+1))
	}
	for i := 0; i < 2*n+2; i++ {
		c.pool = append(c.pool, pfx(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)))
	}
	c.e = New(Config{
		SystemID: c.ids[0],
		Hostname: "self",
		Clock:    sim.New(1),
		OnRoutes: func(rs []Route) { c.got = rs },
	})
	// The router's own prefixes: pool[0] and pool[1].
	c.e.AddInterface(InterfaceConfig{Name: "Loopback0", Passive: true, Prefixes: c.pool[:2]})

	lsps := map[SystemID]*LSP{}
	for _, id := range c.ids[1:] {
		lsps[id] = &LSP{Origin: id, Seq: 1}
	}
	adj := func(a, b SystemID, m uint32) {
		if l := lsps[a]; l != nil {
			l.Neighbors = append(l.Neighbors, Neighbor{ID: b, Metric: m})
		}
	}
	metric := func() uint32 { return uint32(1 + rng.Intn(63)) }

	// A few routers form an island with no adjacency to the rest.
	islands := map[int]bool{}
	for i := rng.Intn(3); i > 0 && n > 3; i-- {
		islands[1+rng.Intn(n-1)] = true
	}
	p := 3.0 / float64(n)
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if islands[i] != islands[j] || rng.Float64() >= p {
				continue
			}
			a, b := c.ids[i], c.ids[j]
			switch k := rng.Intn(10); {
			case k < 6: // two-way, possibly asymmetric metrics
				adj(a, b, metric())
				adj(b, a, metric())
			case k < 8: // one-way: fails the two-way check
				adj(a, b, metric())
			default: // parallel links, equal or unequal cost
				m := metric()
				adj(a, b, m)
				adj(b, a, m)
				if rng.Intn(2) == 0 {
					m = metric()
				}
				adj(a, b, m)
				adj(b, a, m)
			}
		}
	}

	// Local circuits: 1–3 parallel circuits per chosen neighbour, some of
	// them equal-cost, some unequal, some down.
	circ := 0
	for i := 1; i < n; i++ {
		if islands[i] || rng.Float64() >= 0.3 && i != 1 {
			continue
		}
		nbr := c.ids[i]
		base := metric()
		if rng.Intn(4) != 0 {
			adj(nbr, c.ids[0], metric()) // the neighbour lists us: two-way
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			circ++
			m := base
			if rng.Intn(2) == 0 {
				m = metric()
			}
			name := fmt.Sprintf("Ethernet%d", circ)
			c.e.AddInterface(InterfaceConfig{
				Name:     name,
				Addr:     addr(fmt.Sprintf("172.31.%d.1", circ)),
				Prefixes: []netip.Prefix{pfx(fmt.Sprintf("172.31.%d.0/31", circ))},
				Metric:   m,
			})
			ct := c.e.circuits[name]
			ct.nbr = nbr
			// Neighbour addresses are drawn so their order differs from
			// interface-name order (and sometimes collides).
			ct.nbrIP = addr(fmt.Sprintf("192.0.2.%d", 1+rng.Intn(200)))
			if rng.Intn(5) != 0 {
				ct.state = adjUp
			}
		}
	}
	// Prefixes, drawn from a shared pool so several origins (including
	// neighbours re-advertising our own prefixes) compete for one prefix.
	for _, id := range c.ids[1:] {
		for k := rng.Intn(4); k > 0; k-- {
			lsps[id].Prefixes = append(lsps[id].Prefixes, PrefixReach{
				Prefix: c.pool[rng.Intn(len(c.pool))],
				Metric: uint32(rng.Intn(64)),
			})
		}
	}
	c.e.originate()
	for id, l := range lsps {
		c.e.lsdb[id] = l
	}
	return c
}

// mutate changes the LSDB as a flooded LSP would: re-metric or drop an
// adjacency, replace a prefix list, or add a new origin.
func (c *spfCase) mutate(rng *rand.Rand) {
	remote := c.ids[1+rng.Intn(len(c.ids)-1)]
	old := c.e.lsdb[remote]
	l := &LSP{Origin: remote, Seq: old.Seq + 1, Hostname: old.Hostname}
	l.Neighbors = append(l.Neighbors, old.Neighbors...)
	l.Prefixes = append(l.Prefixes, old.Prefixes...)
	switch rng.Intn(4) {
	case 0:
		if len(l.Neighbors) > 0 {
			l.Neighbors[rng.Intn(len(l.Neighbors))].Metric = uint32(1 + rng.Intn(63))
		}
	case 1:
		if len(l.Neighbors) > 0 {
			i := rng.Intn(len(l.Neighbors))
			l.Neighbors = append(l.Neighbors[:i], l.Neighbors[i+1:]...)
		}
	case 2:
		l.Prefixes = []PrefixReach{{Prefix: c.pool[rng.Intn(len(c.pool))], Metric: uint32(rng.Intn(64))}}
	case 3:
		id := sysID(c.nextID)
		c.nextID++
		c.ids = append(c.ids, id)
		m := uint32(1 + rng.Intn(63))
		l.Neighbors = append(l.Neighbors, Neighbor{ID: id, Metric: m})
		c.e.lsdb[id] = &LSP{
			Origin:    id,
			Seq:       1,
			Neighbors: []Neighbor{{ID: remote, Metric: m}},
			Prefixes:  []PrefixReach{{Prefix: c.pool[rng.Intn(len(c.pool))], Metric: uint32(rng.Intn(64))}},
		}
	}
	c.e.lsdb[remote] = l
}

// oracleRoutes computes the expected SPF result independently of the
// engine: Floyd–Warshall all-pairs distances over the two-way-checked LSDB
// graph, the minimum metric per prefix, and as first hops every
// lowest-metric up circuit to a neighbour n with w(self,n)+d(n,origin) equal
// to the best distance to that origin.
func oracleRoutes(e *Engine) []Route {
	const inf = uint64(1) << 62
	var ids []SystemID
	for id := range e.lsdb {
		ids = append(ids, id)
	}
	idx := map[SystemID]int{}
	for i, id := range ids {
		idx[id] = i
	}
	n := len(ids)
	lists := func(from, to SystemID) bool {
		for _, nb := range e.lsdb[from].Neighbors {
			if nb.ID == to {
				return true
			}
		}
		return false
	}
	w := make([][]uint64, n)
	for i := range w {
		w[i] = make([]uint64, n)
		for j := range w[i] {
			w[i][j] = inf
		}
		w[i][i] = 0
	}
	for i, id := range ids {
		for _, nb := range e.lsdb[id].Neighbors {
			j, ok := idx[nb.ID]
			if !ok || j == i || !lists(nb.ID, id) {
				continue
			}
			if m := uint64(nb.Metric); m < w[i][j] {
				w[i][j] = m
			}
		}
	}
	d := make([][]uint64, n)
	for i := range d {
		d[i] = append([]uint64(nil), w[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	s, ok := idx[e.cfg.SystemID]
	if !ok {
		return nil
	}
	// firstHops lists the lowest-metric up circuits to each neighbour that
	// start a shortest path to origin o.
	firstHops := func(o int) []NextHop {
		var out []NextHop
		for nb := 0; nb < n; nb++ {
			if nb == s || w[s][nb] >= inf || w[s][nb]+d[nb][o] != d[s][o] {
				continue
			}
			for _, c := range e.circuits {
				if c.state == adjUp && c.nbr == ids[nb] && uint64(c.cfg.Metric) == w[s][nb] {
					out = append(out, NextHop{IP: c.nbrIP, Interface: c.cfg.Name})
				}
			}
		}
		return out
	}
	best := map[netip.Prefix]*Route{}
	for o := 0; o < n; o++ {
		if o == s || d[s][o] >= inf {
			continue
		}
		hops := firstHops(o)
		if len(hops) == 0 {
			continue
		}
		for _, pr := range e.lsdb[ids[o]].Prefixes {
			total := uint32(d[s][o]) + pr.Metric
			have, ok := best[pr.Prefix]
			switch {
			case !ok || total < have.Metric:
				best[pr.Prefix] = &Route{Prefix: pr.Prefix, Metric: total, NextHops: append([]NextHop(nil), hops...)}
			case total == have.Metric:
				have.NextHops = append(have.NextHops, hops...)
			}
		}
	}
	for _, c := range e.circuits {
		for _, p := range c.cfg.Prefixes {
			delete(best, p.Masked())
		}
	}
	var out []Route
	for _, r := range best {
		sort.Slice(r.NextHops, func(i, j int) bool {
			a, b := r.NextHops[i], r.NextHops[j]
			if a.IP != b.IP {
				return a.IP.Less(b.IP)
			}
			return a.Interface < b.Interface
		})
		uniq := r.NextHops[:0]
		for i, h := range r.NextHops {
			if i == 0 || h != r.NextHops[i-1] {
				uniq = append(uniq, h)
			}
		}
		r.NextHops = uniq
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prefix.Addr() != out[j].Prefix.Addr() {
			return out[i].Prefix.Addr().Less(out[j].Prefix.Addr())
		}
		return out[i].Prefix.Bits() < out[j].Prefix.Bits()
	})
	return out
}

func sameRoute(a, b Route) bool {
	return a.Prefix == b.Prefix && a.Metric == b.Metric && slices.Equal(a.NextHops, b.NextHops)
}

func formatRoutes(rs []Route) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("  %v m=%d %v\n", r.Prefix, r.Metric, r.NextHops)
	}
	return s
}

// TestQuickSPFMatchesShortestPaths checks RunSPF against a reference
// all-pairs shortest-path computation on random LSDBs, and again after
// each of a few LSDB changes on the same engine.
func TestQuickSPFMatchesShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for it := 0; it < iters; it++ {
		c := newSPFCase(rng)
		for step := 0; step < 4; step++ {
			if step > 0 {
				c.mutate(rng)
			}
			c.e.RunSPF()
			want := oracleRoutes(c.e)
			if !slices.EqualFunc(c.got, want, sameRoute) {
				t.Fatalf("case %d step %d (%d routers): SPF\n%sreference\n%s",
					it, step, len(c.e.lsdb), formatRoutes(c.got), formatRoutes(want))
			}
		}
	}
}

// TestUnequalParallelLinksUseCheapest: of two parallel links to the same
// neighbour, only the cheaper one may carry traffic; the other is not an
// ECMP leg.
func TestUnequalParallelLinksUseCheapest(t *testing.T) {
	n := newNet()
	e1, e2 := n.add("r1", 1), n.add("r2", 2)
	for i, e := range []*Engine{e1, e2} {
		e.AddInterface(InterfaceConfig{
			Name: "Loopback0", Passive: true,
			Prefixes: []netip.Prefix{pfx(fmt.Sprintf("1.1.1.%d/32", i+1))},
		})
	}
	e1.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.1"), Metric: 10})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.2"), Metric: 10})
	e1.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.21.1"), Metric: 100})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.21.2"), Metric: 100})
	n.link(e1, "Ethernet1", e2, "Ethernet1")
	n.link(e1, "Ethernet2", e2, "Ethernet2")
	e1.Start()
	e2.Start()
	n.s.RunFor(time.Minute)
	r, ok := findRoute(n.routes["r1"], pfx("1.1.1.2/32"))
	if !ok {
		t.Fatal("r1 missing route to r2")
	}
	if r.Metric != 10 || len(r.NextHops) != 1 || r.NextHops[0] != (NextHop{IP: addr("10.0.12.2"), Interface: "Ethernet1"}) {
		t.Errorf("route = %+v, want metric 10 via 10.0.12.2 Ethernet1 only", r)
	}
	// With the cheap link gone, the expensive one takes over.
	e1.DetachTransport("Ethernet1")
	e2.DetachTransport("Ethernet1")
	n.s.RunFor(time.Minute)
	r, ok = findRoute(n.routes["r1"], pfx("1.1.1.2/32"))
	if !ok || r.Metric != 100 || len(r.NextHops) != 1 || r.NextHops[0].Interface != "Ethernet2" {
		t.Errorf("fallback route = %+v, %v; want metric 100 via Ethernet2", r, ok)
	}
}

// TestConcurrentSPF runs SPF on several engines at once, as replica lanes
// do: the scratch they borrow from the shared pool must not leak between
// them.
func TestConcurrentSPF(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := make([]*spfCase, 8)
	for i := range cases {
		cases[i] = newSPFCase(rng)
	}
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := oracleRoutes(c.e)
			for run := 0; run < 50; run++ {
				c.e.hasDelivered = false // force a delivery every run
				c.e.RunSPF()
				if !slices.EqualFunc(c.got, want, sameRoute) {
					t.Errorf("case %d run %d: SPF\n%sreference\n%s", i, run, formatRoutes(c.got), formatRoutes(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
