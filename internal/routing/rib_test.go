package routing

import (
	"net/netip"
	"testing"
)

func nh(ip string) NextHop { return NextHop{IP: mustAddr(ip)} }

func route(p string, proto Protocol, metric uint32, hops ...NextHop) Route {
	return Route{
		Prefix:   mustPrefix(p),
		Protocol: proto,
		Distance: proto.DefaultDistance(),
		Metric:   metric,
		NextHops: hops,
	}
}

func TestRIBElection(t *testing.T) {
	r := NewRIB()
	if !r.Install(route("10.0.0.0/8", ProtoISIS, 20, nh("192.0.2.1"))) {
		t.Error("first install did not change election")
	}
	// eBGP (distance 20) beats IS-IS (115).
	if !r.Install(route("10.0.0.0/8", ProtoEBGP, 0, nh("192.0.2.9"))) {
		t.Error("better-distance install did not change election")
	}
	best, ok := r.Get(mustPrefix("10.0.0.0/8"))
	if !ok || best.Protocol != ProtoEBGP {
		t.Fatalf("best = %v,%v; want ebgp route", best, ok)
	}
	// iBGP (200) does not displace eBGP.
	if r.Install(route("10.0.0.0/8", ProtoIBGP, 0, nh("192.0.2.5"))) {
		t.Error("worse-distance install changed election")
	}
	if got := len(r.Candidates(mustPrefix("10.0.0.0/8"))); got != 3 {
		t.Errorf("candidates = %d, want 3", got)
	}
	// Withdrawing the winner falls back to IS-IS.
	if !r.Withdraw(mustPrefix("10.0.0.0/8"), ProtoEBGP) {
		t.Error("withdrawing winner did not change election")
	}
	best, _ = r.Get(mustPrefix("10.0.0.0/8"))
	if best.Protocol != ProtoISIS {
		t.Errorf("after withdraw best = %v, want isis", best)
	}
}

func TestRIBConnectedAlwaysWins(t *testing.T) {
	r := NewRIB()
	r.Install(route("192.0.2.0/31", ProtoEBGP, 0, nh("10.0.0.1")))
	r.Install(route("192.0.2.0/31", ProtoConnected, 0, NextHop{Interface: "Ethernet1"}))
	best, _ := r.Get(mustPrefix("192.0.2.0/31"))
	if best.Protocol != ProtoConnected {
		t.Errorf("best = %v, want connected", best)
	}
}

func TestRIBMetricTieBreak(t *testing.T) {
	r := NewRIB()
	r.Install(route("10.0.0.0/8", ProtoISIS, 30, nh("192.0.2.1")))
	// Same protocol reinstall with better metric replaces the candidate.
	r.Install(route("10.0.0.0/8", ProtoISIS, 10, nh("192.0.2.2")))
	best, _ := r.Get(mustPrefix("10.0.0.0/8"))
	if best.Metric != 10 || best.NextHops[0].IP != mustAddr("192.0.2.2") {
		t.Errorf("best = %v, want metric-10 via 192.0.2.2", best)
	}
	if got := len(r.Candidates(mustPrefix("10.0.0.0/8"))); got != 1 {
		t.Errorf("candidates = %d, want 1 (same-protocol replace)", got)
	}
}

func TestRIBNoopReinstall(t *testing.T) {
	r := NewRIB()
	rt := route("10.0.0.0/8", ProtoISIS, 20, nh("192.0.2.1"))
	r.Install(rt)
	v := r.Version()
	if r.Install(rt) {
		t.Error("identical reinstall reported change")
	}
	if r.Version() != v {
		t.Error("identical reinstall bumped version")
	}
}

func TestRIBLookupLPMSkipsEmptyElection(t *testing.T) {
	r := NewRIB()
	r.Install(route("10.0.0.0/8", ProtoISIS, 5, nh("192.0.2.1")))
	r.Install(route("10.1.0.0/16", ProtoEBGP, 0, nh("192.0.2.9")))
	rt, ok := r.Lookup(mustAddr("10.1.2.3"))
	if !ok || rt.Prefix != mustPrefix("10.1.0.0/16") {
		t.Fatalf("Lookup = %v,%v; want /16", rt, ok)
	}
	r.Withdraw(mustPrefix("10.1.0.0/16"), ProtoEBGP)
	rt, ok = r.Lookup(mustAddr("10.1.2.3"))
	if !ok || rt.Prefix != mustPrefix("10.0.0.0/8") {
		t.Errorf("after withdraw Lookup = %v,%v; want /8", rt, ok)
	}
}

func TestRIBOnChangeAndVersion(t *testing.T) {
	r := NewRIB()
	var events []string
	r.OnChange(func(p netip.Prefix, best *Route) {
		if best == nil {
			events = append(events, "del "+p.String())
		} else {
			events = append(events, "set "+p.String())
		}
	})
	r.Install(route("10.0.0.0/8", ProtoISIS, 5, nh("192.0.2.1")))
	r.Install(route("10.0.0.0/8", ProtoEBGP, 0, nh("192.0.2.2")))
	r.Withdraw(mustPrefix("10.0.0.0/8"), ProtoEBGP)
	r.Withdraw(mustPrefix("10.0.0.0/8"), ProtoISIS)
	want := []string{"set 10.0.0.0/8", "set 10.0.0.0/8", "set 10.0.0.0/8", "del 10.0.0.0/8"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("events[%d] = %q, want %q", i, events[i], want[i])
		}
	}
	if r.Version() != 4 {
		t.Errorf("Version = %d, want 4", r.Version())
	}
}

func TestRIBDropRoute(t *testing.T) {
	r := NewRIB()
	drop := Route{Prefix: mustPrefix("10.0.0.0/8"), Protocol: ProtoStatic, Distance: 1, Drop: true}
	r.Install(drop)
	rt, ok := r.Lookup(mustAddr("10.5.5.5"))
	if !ok || !rt.Drop {
		t.Errorf("Lookup = %v,%v; want drop route", rt, ok)
	}
}

func TestRIBRoutesSorted(t *testing.T) {
	r := NewRIB()
	r.Install(route("192.168.0.0/16", ProtoISIS, 1, nh("192.0.2.1")))
	r.Install(route("10.0.0.0/8", ProtoISIS, 1, nh("192.0.2.1")))
	r.Install(route("10.0.1.0/24", ProtoISIS, 1, nh("192.0.2.1")))
	routes := r.Routes()
	if len(routes) != 3 {
		t.Fatalf("Routes len = %d", len(routes))
	}
	if routes[0].Prefix != mustPrefix("10.0.0.0/8") || routes[2].Prefix != mustPrefix("192.168.0.0/16") {
		t.Errorf("Routes not in bit order: %v", routes)
	}
}

func TestNextHopStringAndEqual(t *testing.T) {
	a := NextHop{IP: mustAddr("10.0.0.1"), Interface: "Ethernet1", LabelStack: []uint32{100, 200}}
	b := a
	if !a.Equal(b) {
		t.Error("identical next hops not Equal")
	}
	b.LabelStack = []uint32{100, 201}
	if a.Equal(b) {
		t.Error("different label stacks Equal")
	}
	if got := a.String(); got != "10.0.0.1 via Ethernet1 labels [100 200]" {
		t.Errorf("String = %q", got)
	}
	direct := NextHop{Interface: "Loopback0"}
	if got := direct.String(); got != "direct via Loopback0" {
		t.Errorf("String = %q", got)
	}
}

func TestProtocolStringsAndDistances(t *testing.T) {
	tests := []struct {
		p    Protocol
		s    string
		dist uint8
	}{
		{ProtoConnected, "connected", 0},
		{ProtoStatic, "static", 1},
		{ProtoEBGP, "ebgp", 20},
		{ProtoISIS, "isis", 115},
		{ProtoIBGP, "ibgp", 200},
		{ProtoAggregate, "aggregate", 210},
		{ProtoLocal, "local", 0},
	}
	for _, tc := range tests {
		if tc.p.String() != tc.s {
			t.Errorf("%v.String() = %q, want %q", tc.p, tc.p.String(), tc.s)
		}
		if tc.p.DefaultDistance() != tc.dist {
			t.Errorf("%s.DefaultDistance() = %d, want %d", tc.s, tc.p.DefaultDistance(), tc.dist)
		}
	}
	if Protocol(99).String() != "proto(99)" || Protocol(99).DefaultDistance() != 255 {
		t.Error("unknown protocol formatting wrong")
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	tr := NewTrie[int]()
	r := newBenchPrefixes(10000)
	for i, p := range r {
		tr.Insert(p, i)
	}
	addrs := make([]netip.Addr, 1024)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(i), byte(i * 7), byte(i * 13), byte(i * 29)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(addrs[i%len(addrs)])
	}
}

func newBenchPrefixes(n int) []netip.Prefix {
	out := make([]netip.Prefix, 0, n)
	for i := 0; i < n; i++ {
		a := netip.AddrFrom4([4]byte{byte(10 + i%200), byte(i / 251), byte(i % 251), 0})
		out = append(out, netip.PrefixFrom(a, 24).Masked())
	}
	return out
}
