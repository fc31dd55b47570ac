package isis

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"mfv/internal/sim"
)

func sysID(i int) SystemID {
	id, err := ParseSystemID(fmt.Sprintf("0000.0000.%04x", i))
	if err != nil {
		panic(err)
	}
	return id
}

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// net is a test network of IS-IS engines joined by simulated links.
type net struct {
	s       *sim.Simulator
	engines map[string]*Engine
	routes  map[string][]Route
}

func newNet() *net {
	return &net{s: sim.New(1), engines: map[string]*Engine{}, routes: map[string][]Route{}}
}

func (n *net) add(name string, id int) *Engine {
	e := New(Config{
		SystemID: sysID(id),
		Hostname: name,
		Clock:    n.s,
		OnRoutes: func(rs []Route) { n.routes[name] = rs },
	})
	n.engines[name] = e
	return e
}

// link joins engineA.intfA <-> engineB.intfB with 1 ms latency.
func (n *net) link(a *Engine, intfA string, b *Engine, intfB string) {
	a.AttachTransport(intfA, func(data []byte) {
		d := append([]byte{}, data...)
		n.s.After(time.Millisecond, func() { b.HandlePDU(intfB, d) })
	})
	b.AttachTransport(intfB, func(data []byte) {
		d := append([]byte{}, data...)
		n.s.After(time.Millisecond, func() { a.HandlePDU(intfA, d) })
	})
}

// lineThree builds r1 -- r2 -- r3 with loopbacks 1.1.1.N/32.
func lineThree() (*net, [3]*Engine) {
	n := newNet()
	var e [3]*Engine
	for i := 0; i < 3; i++ {
		e[i] = n.add(fmt.Sprintf("r%d", i+1), i+1)
		e[i].AddInterface(InterfaceConfig{
			Name: "Loopback0", Passive: true,
			Prefixes: []netip.Prefix{pfx(fmt.Sprintf("1.1.1.%d/32", i+1))},
		})
	}
	e[0].AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.1"), Prefixes: []netip.Prefix{pfx("10.0.12.0/31")}})
	e[1].AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.0"), Prefixes: []netip.Prefix{pfx("10.0.12.0/31")}})
	e[1].AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.23.1"), Prefixes: []netip.Prefix{pfx("10.0.23.0/31")}})
	e[2].AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.23.0"), Prefixes: []netip.Prefix{pfx("10.0.23.0/31")}})
	n.link(e[0], "Ethernet1", e[1], "Ethernet1")
	n.link(e[1], "Ethernet2", e[2], "Ethernet1")
	for i := range e {
		e[i].Start()
	}
	return n, e
}

func findRoute(rs []Route, p netip.Prefix) (Route, bool) {
	for _, r := range rs {
		if r.Prefix == p {
			return r, true
		}
	}
	return Route{}, false
}

func TestSystemIDParse(t *testing.T) {
	id, err := ParseSystemID("1010.1040.1030")
	if err != nil {
		t.Fatal(err)
	}
	if id.String() != "1010.1040.1030" {
		t.Errorf("String = %q", id.String())
	}
	for _, bad := range []string{"", "1010.1040", "zzzz.1040.1030", "10.1040.1030"} {
		if _, err := ParseSystemID(bad); err == nil {
			t.Errorf("ParseSystemID(%q) succeeded", bad)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	h := Hello{
		Source:      sysID(7),
		SourceIP:    addr("10.0.0.1"),
		HoldingTime: 30,
		Seen:        []SystemID{sysID(1), sysID(2)},
	}
	got, err := Decode(EncodeHello(h))
	if err != nil {
		t.Fatal(err)
	}
	gh := got.(Hello)
	if gh.Source != h.Source || gh.SourceIP != h.SourceIP || len(gh.Seen) != 2 || gh.Seen[1] != sysID(2) {
		t.Errorf("hello round trip = %+v", gh)
	}

	l := LSP{
		Origin: sysID(3),
		Seq:    42,
		Neighbors: []Neighbor{
			{ID: sysID(1), Metric: 10}, {ID: sysID(2), Metric: 25},
		},
		Prefixes: []PrefixReach{
			{Prefix: pfx("10.0.0.0/31"), Metric: 0},
			{Prefix: pfx("1.1.1.3/32"), Metric: 5},
		},
		Hostname: "r3",
	}
	got, err = Decode(EncodeLSP(l))
	if err != nil {
		t.Fatal(err)
	}
	gl := got.(LSP)
	if gl.Origin != l.Origin || gl.Seq != 42 || len(gl.Neighbors) != 2 ||
		gl.Neighbors[1].Metric != 25 || len(gl.Prefixes) != 2 ||
		gl.Prefixes[0].Prefix != pfx("10.0.0.0/31") || gl.Hostname != "r3" {
		t.Errorf("LSP round trip = %+v", gl)
	}
}

func TestCodecErrors(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{0x83},
		{0x00, pduHello},
		{0x83, 99},
		{0x83, pduHello, 1, 2, 3},
		{0x83, pduLSP, 1, 2, 3},
	} {
		if _, err := Decode(bad); err == nil {
			t.Errorf("Decode(%v) succeeded", bad)
		}
	}
	// Truncated neighbor list.
	h := EncodeHello(Hello{Source: sysID(1), SourceIP: addr("1.1.1.1"), HoldingTime: 30, Seen: []SystemID{sysID(2)}})
	if _, err := Decode(h[:len(h)-3]); err == nil {
		t.Error("truncated hello accepted")
	}
}

func TestAdjacencyAndConvergence(t *testing.T) {
	n, e := lineThree()
	n.s.RunFor(time.Minute)

	for i, eng := range e {
		adjs := eng.Adjacencies()
		for _, a := range adjs {
			if !a.Up {
				t.Errorf("r%d %s adjacency down: %+v", i+1, a.Interface, a)
			}
		}
	}
	// r1 must reach r3's loopback via r2 with metric 20 (two hops × 10).
	r, ok := findRoute(n.routes["r1"], pfx("1.1.1.3/32"))
	if !ok {
		t.Fatalf("r1 routes = %+v; missing 1.1.1.3/32", n.routes["r1"])
	}
	if r.Metric != 20 {
		t.Errorf("metric = %d, want 20", r.Metric)
	}
	if len(r.NextHops) != 1 || r.NextHops[0].IP != addr("10.0.12.0") || r.NextHops[0].Interface != "Ethernet1" {
		t.Errorf("next hops = %+v", r.NextHops)
	}
	// r1 must also have the remote transfer net 10.0.23.0/31 but NOT its own
	// connected 10.0.12.0/31.
	if _, ok := findRoute(n.routes["r1"], pfx("10.0.23.0/31")); !ok {
		t.Error("r1 missing remote transfer network")
	}
	if _, ok := findRoute(n.routes["r1"], pfx("10.0.12.0/31")); ok {
		t.Error("r1 installed an IS-IS route to its own connected prefix")
	}
	// LSDBs must all contain 3 LSPs.
	for i, eng := range e {
		if got := len(eng.LSDB()); got != 3 {
			t.Errorf("r%d LSDB size = %d, want 3", i+1, got)
		}
	}
}

func TestLinkFailureReconvergence(t *testing.T) {
	n, e := lineThree()
	n.s.RunFor(time.Minute)
	if _, ok := findRoute(n.routes["r1"], pfx("1.1.1.3/32")); !ok {
		t.Fatal("not converged before failure")
	}
	// Cut the r2—r3 link (both directions).
	e[1].DetachTransport("Ethernet2")
	e[2].DetachTransport("Ethernet1")
	n.s.RunFor(time.Minute)
	if _, ok := findRoute(n.routes["r1"], pfx("1.1.1.3/32")); ok {
		t.Error("r1 still has a route to r3 after the only path was cut")
	}
	// r1 must still reach r2.
	if _, ok := findRoute(n.routes["r1"], pfx("1.1.1.2/32")); !ok {
		t.Error("r1 lost the route to r2 too")
	}
}

func TestHoldingTimeExpiry(t *testing.T) {
	n, e := lineThree()
	n.s.RunFor(time.Minute)
	// Silently kill r3's transmissions (simulates one-way loss): r2's
	// holding timer must expire and routes through r3 vanish.
	e[2].Stop()
	n.s.RunFor(2 * time.Minute)
	if _, ok := findRoute(n.routes["r1"], pfx("1.1.1.3/32")); ok {
		t.Error("stale adjacency survived holding-time expiry")
	}
}

func TestECMP(t *testing.T) {
	// Diamond: r1 -> {r2, r3} -> r4, equal metrics everywhere.
	n := newNet()
	e1, e2, e3, e4 := n.add("r1", 1), n.add("r2", 2), n.add("r3", 3), n.add("r4", 4)
	for i, e := range []*Engine{e1, e2, e3, e4} {
		e.AddInterface(InterfaceConfig{
			Name: "Loopback0", Passive: true,
			Prefixes: []netip.Prefix{pfx(fmt.Sprintf("1.1.1.%d/32", i+1))},
		})
	}
	// r1 Ethernet1 <-> r2 Ethernet1 ; r1 Ethernet2 <-> r3 Ethernet1
	// r2 Ethernet2 <-> r4 Ethernet1 ; r3 Ethernet2 <-> r4 Ethernet2
	e1.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.1")})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.2")})
	e1.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.13.1")})
	e3.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.13.3")})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.24.2")})
	e4.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.24.4")})
	e3.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.34.3")})
	e4.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.34.4")})
	n.link(e1, "Ethernet1", e2, "Ethernet1")
	n.link(e1, "Ethernet2", e3, "Ethernet1")
	n.link(e2, "Ethernet2", e4, "Ethernet1")
	n.link(e3, "Ethernet2", e4, "Ethernet2")
	for _, e := range []*Engine{e1, e2, e3, e4} {
		e.Start()
	}
	n.s.RunFor(time.Minute)
	r, ok := findRoute(n.routes["r1"], pfx("1.1.1.4/32"))
	if !ok {
		t.Fatal("r1 missing route to r4")
	}
	if len(r.NextHops) != 2 {
		t.Errorf("next hops = %+v, want 2-way ECMP", r.NextHops)
	}
	if r.Metric != 20 {
		t.Errorf("metric = %d, want 20", r.Metric)
	}
}

func TestMetricInfluencesPath(t *testing.T) {
	// Triangle r1-r2-r3 with an expensive direct r1-r3 link: traffic must
	// prefer the two-hop cheap path.
	n := newNet()
	e1, e2, e3 := n.add("r1", 1), n.add("r2", 2), n.add("r3", 3)
	for i, e := range []*Engine{e1, e2, e3} {
		e.AddInterface(InterfaceConfig{
			Name: "Loopback0", Passive: true,
			Prefixes: []netip.Prefix{pfx(fmt.Sprintf("1.1.1.%d/32", i+1))},
		})
	}
	e1.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.1")})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.12.2")})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.23.2")})
	e3.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.23.3")})
	e1.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.13.1"), Metric: 100})
	e3.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.0.13.3"), Metric: 100})
	n.link(e1, "Ethernet1", e2, "Ethernet1")
	n.link(e2, "Ethernet2", e3, "Ethernet1")
	n.link(e1, "Ethernet2", e3, "Ethernet2")
	for _, e := range []*Engine{e1, e2, e3} {
		e.Start()
	}
	n.s.RunFor(time.Minute)
	r, ok := findRoute(n.routes["r1"], pfx("1.1.1.3/32"))
	if !ok {
		t.Fatal("r1 missing route to r3")
	}
	if r.Metric != 20 {
		t.Errorf("metric = %d, want 20 (via r2)", r.Metric)
	}
	if len(r.NextHops) != 1 || r.NextHops[0].Interface != "Ethernet1" {
		t.Errorf("next hops = %+v, want via Ethernet1 only", r.NextHops)
	}
	// Now cut the cheap path: the expensive link must take over.
	e1.DetachTransport("Ethernet1")
	e2.DetachTransport("Ethernet1")
	n.s.RunFor(time.Minute)
	r, ok = findRoute(n.routes["r1"], pfx("1.1.1.3/32"))
	if !ok {
		t.Fatal("no fallback to expensive link")
	}
	if r.Metric != 100 || r.NextHops[0].Interface != "Ethernet2" {
		t.Errorf("fallback route = %+v, want metric 100 via Ethernet2", r)
	}
}

func TestPassiveInterfaceFormsNoAdjacency(t *testing.T) {
	n := newNet()
	e1, e2 := n.add("r1", 1), n.add("r2", 2)
	e1.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.0.1"), Passive: true, Prefixes: []netip.Prefix{pfx("10.0.0.0/31")}})
	e2.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.0.0")})
	n.link(e1, "Ethernet1", e2, "Ethernet1")
	e1.Start()
	e2.Start()
	n.s.RunFor(time.Minute)
	for _, a := range e2.Adjacencies() {
		if a.Up {
			t.Errorf("adjacency formed with a passive interface: %+v", a)
		}
	}
}

func TestLSPSequenceSupersession(t *testing.T) {
	n, e := lineThree()
	n.s.RunFor(time.Minute)
	before := e[0].LSDB()
	var r3Seq uint32
	for _, lsp := range before {
		if lsp.Origin == sysID(3) {
			r3Seq = lsp.Seq
		}
	}
	// Force r3 to re-originate; its higher-seq LSP must replace the old one
	// at r1.
	e[2].RunSPF() // no-op for DB, just exercising
	n.s.RunFor(time.Second)
	e[2].HandlePDU("Ethernet1", EncodeLSP(LSP{Origin: sysID(3), Seq: r3Seq + 10}))
	n.s.RunFor(time.Minute)
	for _, lsp := range e[0].LSDB() {
		if lsp.Origin == sysID(3) && lsp.Seq <= r3Seq {
			t.Errorf("r1 kept stale LSP seq %d (own-LSP bump not flooded)", lsp.Seq)
		}
	}
}

func TestStaleOwnLSPBumpsSequence(t *testing.T) {
	n, e := lineThree()
	n.s.RunFor(time.Minute)
	// Inject a fake "our own" LSP with a huge sequence at r1: r1 must jump
	// past it.
	fake := LSP{Origin: sysID(1), Seq: 1000}
	e[0].HandlePDU("Ethernet1", EncodeLSP(fake))
	n.s.RunFor(time.Minute)
	own := e[0].LSDB()
	for _, lsp := range own {
		if lsp.Origin == sysID(1) && lsp.Seq <= 1000 {
			t.Errorf("own LSP seq = %d, want > 1000", lsp.Seq)
		}
	}
}

func TestDetachBeforeStartIsSafe(t *testing.T) {
	n := newNet()
	e := n.add("r1", 1)
	e.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.0.0.1")})
	e.DetachTransport("Ethernet1") // no transport attached yet
	e.DetachTransport("Ethernet9") // unknown interface
	e.HandlePDU("Ethernet9", nil)  // unknown interface
	e.Start()
	n.s.RunFor(time.Second)
}

// gridEngine returns an engine whose LSDB is a synthetic 10x10 grid with
// one /24 per router; the engine is the corner router, with one circuit
// toward each of its two grid neighbours, down.
func gridEngine() *Engine {
	n := newNet()
	e := n.add("r0", 1)
	id := func(r, c int) SystemID { return sysID(r*10 + c + 1) }
	e.AddInterface(InterfaceConfig{Name: "Ethernet1", Addr: addr("10.255.0.1")})
	e.AddInterface(InterfaceConfig{Name: "Ethernet2", Addr: addr("10.255.1.1")})
	e.circuits["Ethernet1"].nbr, e.circuits["Ethernet1"].nbrIP = id(1, 0), addr("10.255.0.2")
	e.circuits["Ethernet2"].nbr, e.circuits["Ethernet2"].nbrIP = id(0, 1), addr("10.255.1.2")
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			lsp := LSP{Origin: id(r, c), Seq: 1}
			if r > 0 {
				lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: id(r-1, c), Metric: 10})
			}
			if r < 9 {
				lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: id(r+1, c), Metric: 10})
			}
			if c > 0 {
				lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: id(r, c-1), Metric: 10})
			}
			if c < 9 {
				lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: id(r, c+1), Metric: 10})
			}
			lsp.Prefixes = []PrefixReach{{Prefix: pfx(fmt.Sprintf("10.%d.%d.0/24", r, c))}}
			e.lsdb[lsp.Origin] = &lsp
		}
	}
	return e
}

// BenchmarkSPFGrid runs SPF from a grid corner whose adjacencies are down:
// the Dijkstra walk runs, but no route is built.
func BenchmarkSPFGrid(b *testing.B) {
	e := gridEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunSPF()
	}
}

// BenchmarkSPFRoutes runs SPF from a grid corner with both adjacencies up,
// so every one of the 99 remote /24s gets a route (most with two ECMP
// legs). The result repeats run to run, as in a settled network.
func BenchmarkSPFRoutes(b *testing.B) {
	e := gridEngine()
	e.circuits["Ethernet1"].state = adjUp
	e.circuits["Ethernet2"].state = adjUp
	e.RunSPF()
	if len(e.delivered) != 99 {
		b.Fatalf("routes = %d, want 99", len(e.delivered))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunSPF()
	}
}
