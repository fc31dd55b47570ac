package dataplane

import (
	"net/netip"
	"strings"
	"testing"

	"mfv/internal/mpls"
	"mfv/internal/routing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// baseRIB builds a RIB with connected 10.0.0.0/31 on Ethernet1 and local
// loopback 1.1.1.1/32.
func baseRIB() *routing.RIB {
	rib := routing.NewRIB()
	rib.Install(routing.Route{
		Prefix: pfx("10.0.0.0/31"), Protocol: routing.ProtoConnected,
		NextHops: []routing.NextHop{{Interface: "Ethernet1"}},
	})
	rib.Install(routing.Route{
		Prefix: pfx("1.1.1.1/32"), Protocol: routing.ProtoLocal,
		NextHops: []routing.NextHop{{Interface: "Loopback0"}},
	})
	return rib
}

func TestResolveDirect(t *testing.T) {
	rib := baseRIB()
	f := New(rib, []netip.Addr{addr("10.0.0.0"), addr("1.1.1.1")})
	r := routing.Route{
		Prefix: pfx("192.0.2.0/24"), Protocol: routing.ProtoISIS,
		NextHops: []routing.NextHop{{IP: addr("10.0.0.1"), Interface: "Ethernet1"}},
	}
	hops, err := f.Resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Interface != "Ethernet1" || hops[0].IP != addr("10.0.0.1") {
		t.Errorf("hops = %+v", hops)
	}
}

func TestResolveRecursiveBGP(t *testing.T) {
	rib := baseRIB()
	// IS-IS provides the route to the BGP next hop 2.2.2.2.
	rib.Install(routing.Route{
		Prefix: pfx("2.2.2.2/32"), Protocol: routing.ProtoISIS, Distance: 115, Metric: 20,
		NextHops: []routing.NextHop{{IP: addr("10.0.0.1"), Interface: "Ethernet1"}},
	})
	rib.Install(routing.Route{
		Prefix: pfx("203.0.113.0/24"), Protocol: routing.ProtoIBGP, Distance: 200,
		NextHops: []routing.NextHop{{IP: addr("2.2.2.2")}},
	})
	f := New(rib, []netip.Addr{addr("10.0.0.0"), addr("1.1.1.1")})
	r, _ := rib.Get(pfx("203.0.113.0/24"))
	hops, err := f.Resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 || hops[0].Interface != "Ethernet1" || hops[0].IP != addr("10.0.0.1") {
		t.Errorf("recursive resolution = %+v, want via Ethernet1/10.0.0.1", hops)
	}
}

func TestResolveRecursiveToConnectedSubnet(t *testing.T) {
	// BGP next hop is directly on the connected subnet: resolution should
	// keep the original next-hop IP.
	rib := baseRIB()
	rib.Install(routing.Route{
		Prefix: pfx("203.0.113.0/24"), Protocol: routing.ProtoEBGP, Distance: 20,
		NextHops: []routing.NextHop{{IP: addr("10.0.0.1")}},
	})
	f := New(rib, []netip.Addr{addr("10.0.0.0")})
	r, _ := rib.Get(pfx("203.0.113.0/24"))
	hops, err := f.Resolve(r)
	if err != nil {
		t.Fatal(err)
	}
	if hops[0].IP != addr("10.0.0.1") || hops[0].Interface != "Ethernet1" {
		t.Errorf("hops = %+v", hops)
	}
}

func TestResolveDropRoute(t *testing.T) {
	rib := baseRIB()
	f := New(rib, nil)
	hops, err := f.Resolve(routing.Route{Prefix: pfx("10.0.0.0/8"), Drop: true})
	if err != nil || len(hops) != 1 || !hops[0].Drop {
		t.Errorf("drop resolution = %+v, %v", hops, err)
	}
}

func TestResolveUnreachableNextHop(t *testing.T) {
	rib := baseRIB()
	f := New(rib, nil)
	_, err := f.Resolve(routing.Route{
		Prefix:   pfx("203.0.113.0/24"),
		NextHops: []routing.NextHop{{IP: addr("99.99.99.99")}},
	})
	if err == nil || !strings.Contains(err.Error(), "no route to next hop") {
		t.Errorf("err = %v", err)
	}
}

func TestResolveSelfNextHopIsReceive(t *testing.T) {
	rib := baseRIB()
	f := New(rib, []netip.Addr{addr("1.1.1.1")})
	hops, err := f.Resolve(routing.Route{
		Prefix:   pfx("203.0.113.0/24"),
		NextHops: []routing.NextHop{{IP: addr("1.1.1.1")}},
	})
	if err != nil || len(hops) != 1 || !hops[0].Receive {
		t.Errorf("self next hop = %+v, %v", hops, err)
	}
}

func TestResolveRecursionLimit(t *testing.T) {
	rib := routing.NewRIB()
	// 10.0.0.0/8 -> 11.0.0.1; 11.0.0.0/8 -> 10.0.0.1 (mutual recursion).
	rib.Install(routing.Route{Prefix: pfx("10.0.0.0/8"), Protocol: routing.ProtoStatic,
		NextHops: []routing.NextHop{{IP: addr("11.0.0.1")}}})
	rib.Install(routing.Route{Prefix: pfx("11.0.0.0/8"), Protocol: routing.ProtoStatic,
		NextHops: []routing.NextHop{{IP: addr("10.0.0.1")}}})
	f := New(rib, nil)
	r, _ := rib.Get(pfx("10.0.0.0/8"))
	if _, err := f.Resolve(r); err == nil || !strings.Contains(err.Error(), "recursion limit") {
		t.Errorf("err = %v, want recursion limit", err)
	}
}

func TestResolveECMP(t *testing.T) {
	rib := baseRIB()
	rib.Install(routing.Route{
		Prefix: pfx("10.0.1.0/31"), Protocol: routing.ProtoConnected,
		NextHops: []routing.NextHop{{Interface: "Ethernet2"}},
	})
	rib.Install(routing.Route{
		Prefix: pfx("203.0.113.0/24"), Protocol: routing.ProtoISIS, Distance: 115,
		NextHops: []routing.NextHop{
			{IP: addr("10.0.0.1"), Interface: "Ethernet1"},
			{IP: addr("10.0.1.1"), Interface: "Ethernet2"},
		},
	})
	f := New(rib, nil)
	r, _ := rib.Get(pfx("203.0.113.0/24"))
	hops, err := f.Resolve(r)
	if err != nil || len(hops) != 2 {
		t.Errorf("ECMP = %+v, %v", hops, err)
	}
}

func TestExportAFT(t *testing.T) {
	rib := baseRIB()
	rib.Install(routing.Route{
		Prefix: pfx("192.0.2.0/24"), Protocol: routing.ProtoISIS, Distance: 115, Metric: 20,
		NextHops: []routing.NextHop{{IP: addr("10.0.0.1"), Interface: "Ethernet1"}},
	})
	rib.Install(routing.Route{
		Prefix: pfx("99.0.0.0/8"), Protocol: routing.ProtoEBGP, Distance: 20,
		NextHops: []routing.NextHop{{IP: addr("42.42.42.42")}}, // unresolvable
	})
	f := New(rib, []netip.Addr{addr("10.0.0.0"), addr("1.1.1.1")})
	a := f.ExportAFT("r1", []mpls.CrossConnect{
		{InLabel: 100, OutLabel: 200, NextHop: addr("10.0.0.1"), LSPName: "T1"},
		{InLabel: 101, OutLabel: 0, NextHop: addr("10.0.0.1"), LSPName: "T2"},
	})
	if err := a.Validate(); err != nil {
		t.Fatalf("exported AFT invalid: %v", err)
	}
	// 3 resolvable IPv4 routes (connected, local, isis); the unresolvable
	// eBGP route is skipped.
	if len(a.IPv4Entries) != 3 {
		t.Errorf("IPv4 entries = %+v, want 3", a.IPv4Entries)
	}
	for _, e := range a.IPv4Entries {
		if e.Prefix == "99.0.0.0/8" {
			t.Error("unresolvable route exported")
		}
	}
	if len(a.LabelEntries) != 2 {
		t.Fatalf("label entries = %+v", a.LabelEntries)
	}
	if !a.LabelEntries[1].Pop {
		t.Error("tail cross-connect not marked pop")
	}
	hops := a.GroupHops(a.LabelEntries[0].NextHopGroup)
	if len(hops) != 1 || len(hops[0].PushedLabels) != 1 || hops[0].PushedLabels[0] != 200 {
		t.Errorf("swap entry hops = %+v", hops)
	}
}

func TestExportAFTDeterministic(t *testing.T) {
	build := func() string {
		rib := baseRIB()
		for i := 0; i < 50; i++ {
			rib.Install(routing.Route{
				Prefix:   netip.PrefixFrom(netip.AddrFrom4([4]byte{20, byte(i), 0, 0}), 16),
				Protocol: routing.ProtoISIS, Distance: 115,
				NextHops: []routing.NextHop{{IP: addr("10.0.0.1"), Interface: "Ethernet1"}},
			})
		}
		f := New(rib, nil)
		return f.ExportAFT("r1", nil).Fingerprint()
	}
	if build() != build() {
		t.Error("AFT export not deterministic")
	}
}

// TestDedupHops checks the hop filter keeps first occurrences in order,
// treats nil and empty label stacks as one stack, and keeps label stacks,
// drop and receive apart.
func TestDedupHops(t *testing.T) {
	a, b := addr("10.0.0.1"), addr("10.0.0.3")
	in := []ResolvedHop{
		{IP: b, Interface: "Ethernet2"},
		{IP: a, Interface: "Ethernet1", Labels: []uint32{1, 2}},
		{IP: a, Interface: "Ethernet1", Labels: []uint32{12}},
		{IP: a, Interface: "Ethernet1"},
		{IP: b, Interface: "Ethernet2", Labels: []uint32{}},
		{IP: a, Interface: "Ethernet1", Labels: []uint32{1, 2}},
		{Drop: true},
		{Receive: true},
		{Drop: true},
	}
	want := []ResolvedHop{in[0], in[1], in[2], in[3], in[6], in[7]}
	got := dedupHops(in)
	if len(got) != len(want) {
		t.Fatalf("dedupHops kept %d hops, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if !got[i].equal(want[i]) || len(got[i].Labels) != len(want[i].Labels) {
			t.Errorf("hop %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	one := []ResolvedHop{{IP: a}}
	if got := dedupHops(one); len(got) != 1 || &got[0] != &one[0] {
		t.Error("single hop not returned unchanged")
	}
}
