package vrouter

import (
	"math/rand"
	"net/netip"
	"slices"
	"strings"
	"testing"
	"time"

	"mfv/internal/bgp"
	"mfv/internal/config/eos"
	"mfv/internal/isis"
	"mfv/internal/policy"
	"mfv/internal/routing"
	"mfv/internal/sim"
)

func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }
func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func build(t *testing.T, cfg string) (*Router, *sim.Simulator) {
	t.Helper()
	dev, _, err := eos.Parse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	r, err := New(dev.Hostname, dev, EOSProfile, s)
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

const baseCfg = `hostname r1
interface Loopback0
   ip address 1.1.1.1/32
interface Ethernet1
   no switchport
   ip address 10.0.0.0/31
ip route 0.0.0.0/0 10.0.0.1
ip route 203.0.113.0/24 Null0
`

func TestStartInstallsRoutes(t *testing.T) {
	r, s := build(t, baseCfg)
	r.Start()
	s.RunFor(time.Second)
	rib := r.RIB()
	// Loopback /32 must be local (receive), not connected.
	rt, ok := rib.Get(pfx("1.1.1.1/32"))
	if !ok || rt.Protocol != routing.ProtoLocal {
		t.Errorf("loopback route = %v, %v", rt, ok)
	}
	if rt, ok := rib.Get(pfx("10.0.0.0/31")); !ok || rt.Protocol != routing.ProtoConnected {
		t.Errorf("connected = %v, %v", rt, ok)
	}
	if rt, ok := rib.Get(pfx("0.0.0.0/0")); !ok || rt.Protocol != routing.ProtoStatic {
		t.Errorf("static = %v, %v", rt, ok)
	}
	if rt, ok := rib.Get(pfx("203.0.113.0/24")); !ok || !rt.Drop {
		t.Errorf("null route = %v, %v", rt, ok)
	}
}

func TestOwnsAddrAndLocalAddrs(t *testing.T) {
	r, _ := build(t, baseCfg)
	if !r.OwnsAddr(addr("1.1.1.1")) || !r.OwnsAddr(addr("10.0.0.0")) {
		t.Error("OwnsAddr false for own address")
	}
	if r.OwnsAddr(addr("10.0.0.1")) {
		t.Error("OwnsAddr true for peer address")
	}
	las := r.LocalAddrs()
	if len(las) != 2 || las[0] != addr("1.1.1.1") {
		t.Errorf("LocalAddrs = %v", las)
	}
}

func TestRouterIDSelection(t *testing.T) {
	// Explicit router-id wins.
	r, _ := build(t, baseCfg+"router bgp 65001\n   router-id 9.9.9.9\n   neighbor 10.0.0.1 remote-as 65002\n")
	if r.BGP.RouterID() != addr("9.9.9.9") {
		t.Errorf("RouterID = %v", r.BGP.RouterID())
	}
	// Without explicit id, the highest loopback wins.
	r2, _ := build(t, `hostname r2
interface Loopback0
   ip address 1.1.1.1/32
interface Loopback1
   ip address 5.5.5.5/32
interface Ethernet1
   no switchport
   ip address 10.0.0.0/31
router bgp 65001
   neighbor 10.0.0.1 remote-as 65002
`)
	if r2.BGP.RouterID() != addr("5.5.5.5") {
		t.Errorf("RouterID = %v, want highest loopback", r2.BGP.RouterID())
	}
}

func TestBGPLocalAddrResolution(t *testing.T) {
	cfg := `hostname r1
interface Loopback0
   ip address 1.1.1.1/32
interface Ethernet1
   no switchport
   ip address 10.0.0.0/31
router bgp 65001
   neighbor 10.0.0.1 remote-as 65002
   neighbor 7.7.7.7 remote-as 65001
   neighbor 7.7.7.7 update-source Loopback0
`
	r, _ := build(t, cfg)
	direct, _ := r.BGP.Peer(addr("10.0.0.1"))
	if direct.Config().LocalAddr != addr("10.0.0.0") {
		t.Errorf("direct session local = %v", direct.Config().LocalAddr)
	}
	lo, _ := r.BGP.Peer(addr("7.7.7.7"))
	if lo.Config().LocalAddr != addr("1.1.1.1") {
		t.Errorf("update-source session local = %v", lo.Config().LocalAddr)
	}
}

func TestBGPUpdateSourceWithoutAddressFails(t *testing.T) {
	cfg := `hostname r1
interface Ethernet1
   no switchport
   ip address 10.0.0.0/31
router bgp 65001
   neighbor 7.7.7.7 remote-as 65001
   neighbor 7.7.7.7 update-source Loopback9
`
	dev, _, err := eos.Parse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("r1", dev, EOSProfile, sim.New(1)); err == nil ||
		!strings.Contains(err.Error(), "update-source") {
		t.Errorf("err = %v", err)
	}
}

func TestShutNeighborNotConfigured(t *testing.T) {
	cfg := baseCfg + `router bgp 65001
   neighbor 10.0.0.1 remote-as 65002
   neighbor 10.0.0.1 shutdown
`
	r, _ := build(t, cfg)
	if _, ok := r.BGP.Peer(addr("10.0.0.1")); ok {
		t.Error("shutdown neighbor was instantiated")
	}
}

func TestForwardingInterfaceAndCanReach(t *testing.T) {
	r, s := build(t, baseCfg)
	r.Start()
	s.RunFor(time.Second)
	intf, adj, ok := r.ForwardingInterface(addr("8.8.8.8"))
	if !ok || intf != "Ethernet1" || adj != addr("10.0.0.1") {
		t.Errorf("ForwardingInterface = %q %v %v", intf, adj, ok)
	}
	// Own address: local delivery, not forwarded.
	if _, _, ok := r.ForwardingInterface(addr("1.1.1.1")); ok {
		t.Error("own address reported as forwarded")
	}
	// Null-routed: not forwarded.
	if _, _, ok := r.ForwardingInterface(addr("203.0.113.5")); ok {
		t.Error("null-routed address reported as forwarded")
	}
	if !r.CanReach(addr("8.8.8.8")) || !r.CanReach(addr("1.1.1.1")) {
		t.Error("CanReach false for reachable addresses")
	}
	if r.CanReach(addr("203.0.113.5")) {
		t.Error("CanReach true for null-routed address")
	}
}

func TestShutdownInterfaceInstallsNothing(t *testing.T) {
	cfg := `hostname r1
interface Ethernet1
   no switchport
   ip address 10.0.0.0/31
   shutdown
`
	r, s := build(t, cfg)
	r.Start()
	s.RunFor(time.Second)
	if r.RIB().Len() != 0 {
		t.Errorf("shut interface produced routes: %v", r.RIB().Routes())
	}
}

func TestCrashOnOversizedCommunities(t *testing.T) {
	cfg := `hostname r2
interface Ethernet1
   no switchport
   ip address 10.0.0.1/31
router bgp 65002
   neighbor 10.0.0.0 remote-as 65001
`
	dev, _, err := eos.Parse(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	r, err := New("r2", dev, JunosLikeProfile, s)
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	var comms []policy.Community
	for i := 0; i < 100; i++ {
		comms = append(comms, policy.Community(i))
	}
	killer := bgp.EncodeUpdate(bgp.Update{
		Attrs: &bgp.PathAttrs{NextHop: addr("10.0.0.0"), Communities: comms},
		NLRI:  []netip.Prefix{pfx("66.0.0.0/8")},
	})
	r.DeliverBGP(addr("10.0.0.0"), killer)
	s.RunFor(time.Second) // delivery is paced through the processing model
	if r.CrashCount != 1 || !r.Crashed() {
		t.Fatalf("CrashCount = %d crashed=%v", r.CrashCount, r.Crashed())
	}
	// While crashed, traffic is ignored.
	r.DeliverBGP(addr("10.0.0.0"), killer)
	s.RunFor(time.Second)
	if r.CrashCount != 1 {
		t.Error("crashed router processed another update")
	}
	// The supervisor restarts it.
	s.RunFor(time.Minute)
	if r.Crashed() {
		t.Error("router did not restart")
	}
	// A benign update under the limit does not crash.
	ok := bgp.EncodeUpdate(bgp.Update{
		Attrs: &bgp.PathAttrs{NextHop: addr("10.0.0.0")},
		NLRI:  []netip.Prefix{pfx("55.0.0.0/8")},
	})
	r.DeliverBGP(addr("10.0.0.0"), ok)
	s.RunFor(time.Second)
	if r.CrashCount != 1 {
		t.Error("benign update crashed the router")
	}
}

func TestEOSProfileUnlimitedCommunities(t *testing.T) {
	r, s := build(t, baseCfg+"router bgp 65001\n   neighbor 10.0.0.1 remote-as 65002\n")
	var comms []policy.Community
	for i := 0; i < 200; i++ {
		comms = append(comms, policy.Community(i))
	}
	killer := bgp.EncodeUpdate(bgp.Update{
		Attrs: &bgp.PathAttrs{NextHop: addr("10.0.0.1"), Communities: comms},
		NLRI:  []netip.Prefix{pfx("66.0.0.0/8")},
	})
	r.DeliverBGP(addr("10.0.0.1"), killer)
	s.RunFor(time.Second)
	if r.CrashCount != 0 {
		t.Error("EOS profile crashed on large community list")
	}
}

func TestProfileFor(t *testing.T) {
	if ProfileFor("eos").Name != "eos" || ProfileFor("junoslike").Name != "junoslike" {
		t.Error("ProfileFor wrong")
	}
	if ProfileFor("other").Name != "eos" {
		t.Error("unknown vendor should default to eos profile")
	}
}

func TestExportAFTValidates(t *testing.T) {
	r, s := build(t, baseCfg)
	r.Start()
	s.RunFor(time.Second)
	a := r.ExportAFT()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.IPv4Entries) == 0 {
		t.Error("empty AFT")
	}
}

func TestAttachLinkUnconfiguredInterface(t *testing.T) {
	r, _ := build(t, baseCfg)
	// Wiring a port that exists physically but has no config must not
	// panic and must be detachable.
	r.AttachLink("Ethernet9", func([]byte) {})
	r.DetachLink("Ethernet9")
	r.DetachLink("Ethernet10") // unknown: no-op
	r.HandleLinkFrame("Ethernet10", []byte{1, 2, 3})
}

// TestISISDeltaInstall feeds successive IS-IS route sets that add, remove,
// re-metric, re-hop and repeat prefixes, some of them shadowed by connected
// or static routes. After each delivery the RIB must equal a fresh RIB given
// only that set, and its version must move once per prefix whose elected
// route changed.
func TestISISDeltaInstall(t *testing.T) {
	r, s := build(t, baseCfg)
	r.Start()
	s.RunFor(time.Second)

	pool := []netip.Prefix{
		pfx("0.0.0.0/0"),   // shadowed by the static default
		pfx("10.0.0.0/31"), // shadowed by connected
		pfx("10.1.0.0/16"), pfx("10.1.0.0/24"), pfx("10.1.1.0/24"),
		pfx("10.2.0.0/24"), pfx("10.3.0.0/24"), pfx("172.16.0.1/32"),
		pfx("172.16.0.2/32"), pfx("192.168.0.0/24"),
	}
	hops := []isis.NextHop{
		{IP: addr("10.0.0.1"), Interface: "Ethernet1"},
		{IP: addr("10.0.0.1"), Interface: "Ethernet2"},
		{IP: addr("10.0.0.3"), Interface: "Ethernet1"},
	}
	rng := rand.New(rand.NewSource(3))
	randomSet := func() []isis.Route {
		var out []isis.Route
		for _, p := range pool { // pool is in (address, length) order
			if rng.Intn(3) == 0 {
				continue
			}
			rt := isis.Route{Prefix: p, Metric: uint32(10 * (1 + rng.Intn(2)))}
			for _, h := range hops {
				if rng.Intn(2) == 0 {
					rt.NextHops = append(rt.NextHops, h)
				}
			}
			if len(rt.NextHops) == 0 {
				rt.NextHops = hops[:1]
			}
			out = append(out, rt)
		}
		return out
	}
	elected := func(rib *routing.RIB) map[netip.Prefix]routing.Route {
		m := map[netip.Prefix]routing.Route{}
		for _, rt := range rib.Routes() {
			m[rt.Prefix] = rt
		}
		return m
	}

	var set []isis.Route
	for step := 0; step < 200; step++ {
		if step%5 != 4 { // every fifth delivery repeats the previous set
			set = randomSet()
		}
		before, v0 := elected(r.RIB()), r.RIB().Version()
		r.installISISRoutes(set)
		after := elected(r.RIB())
		changed := 0
		for p, rt := range after {
			if old, ok := before[p]; !ok || !old.Equal(rt) {
				changed++
			}
		}
		for p := range before {
			if _, ok := after[p]; !ok {
				changed++
			}
		}
		if got := r.RIB().Version() - v0; got != uint64(changed) {
			t.Fatalf("step %d: version moved %d, want %d (elected-route changes)", step, got, changed)
		}

		fresh, fs := build(t, baseCfg)
		fresh.Start()
		fs.RunFor(time.Second)
		fresh.installISISRoutes(set)
		got, want := r.RIB().Routes(), fresh.RIB().Routes()
		if !slices.EqualFunc(got, want, routing.Route.Equal) {
			t.Fatalf("step %d: RIB after delta install\n%v\nfresh RIB\n%v", step, got, want)
		}
	}
}
