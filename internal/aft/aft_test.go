package aft

import (
	"net/netip"
	"strings"
	"testing"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }

func sampleAFT() *AFT {
	b := NewBuilder("r1")
	nh1 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	nh2 := b.AddNextHop(NextHop{IPAddress: "10.0.1.1", Interface: "Ethernet2"})
	drop := b.AddNextHop(NextHop{Drop: true})
	g1 := b.AddGroup([]uint64{nh1})
	g2 := b.AddGroup([]uint64{nh1, nh2})
	gd := b.AddGroup([]uint64{drop})
	b.AddIPv4(pfx("192.0.2.0/24"), g1, "isis", 20)
	b.AddIPv4(pfx("10.0.0.0/8"), g2, "ebgp", 0)
	b.AddIPv4(pfx("203.0.113.0/24"), gd, "static", 0)
	b.AddLabel(100, g1, false)
	return b.Build()
}

// richAFT exercises every field the fingerprint encodes: multi-label
// stacks, receive and drop hops, a hop without an interface, ECMP groups,
// and several MPLS label entries.
func richAFT() *AFT {
	b := NewBuilder("r7")
	nh1 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1", PushedLabels: []uint32{16001, 24}})
	nh2 := b.AddNextHop(NextHop{IPAddress: "10.0.1.1", Interface: "Ethernet2", PushedLabels: []uint32{3}})
	nh3 := b.AddNextHop(NextHop{IPAddress: "10.0.2.1", Interface: "Ethernet3"})
	nh4 := b.AddNextHop(NextHop{IPAddress: "10.0.3.1"})
	recv := b.AddNextHop(NextHop{Receive: true})
	drop := b.AddNextHop(NextHop{Drop: true})
	g1 := b.AddGroup([]uint64{nh2, nh1, nh3})
	g2 := b.AddGroup([]uint64{recv})
	g3 := b.AddGroup([]uint64{nh4, nh3})
	gd := b.AddGroup([]uint64{drop})
	b.AddIPv4(pfx("0.0.0.0/0"), g3, "ebgp", 0)
	b.AddIPv4(pfx("1.1.1.1/32"), g2, "local", 0)
	b.AddIPv4(pfx("10.10.0.0/16"), g1, "isis", 30)
	b.AddIPv4(pfx("198.51.100.0/31"), gd, "static", 0)
	b.AddLabel(16001, g2, true)
	b.AddLabel(24, g1, false)
	b.AddLabel(1048575, g3, false)
	return b.Build()
}

// sparseAFT has group ids and next-hop indices that are not dense from 1 —
// legal in an ingested AFT — so the fingerprint takes its scan fallback.
func sparseAFT() *AFT {
	return &AFT{
		Device: "r9",
		IPv4Entries: []IPv4Entry{
			{Prefix: "10.0.0.0/8", NextHopGroup: 7},
			{Prefix: "192.0.2.0/24", NextHopGroup: 3},
		},
		LabelEntries:  []LabelEntry{{Label: 300, NextHopGroup: 7}},
		NextHopGroups: []NextHopGroup{{ID: 7, NextHops: []uint64{9, 2}}, {ID: 3, NextHops: []uint64{2}}},
		NextHops: []NextHop{
			{Index: 9, IPAddress: "10.0.0.9", Interface: "Ethernet9", PushedLabels: []uint32{}},
			{Index: 2, IPAddress: "10.0.0.2", Interface: "Ethernet2", PushedLabels: []uint32{7, 8, 9}},
		},
	}
}

// TestFingerprintPinned pins Fingerprint to literal digests: it feeds
// convergence detection, sweep equivalence groups and the on-disk
// DataplaneHash, so its bytes must never change.
func TestFingerprintPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *AFT
		want string
	}{
		{"sample", sampleAFT(), "ab9e48658a5b9fc5"},
		{"rich", richAFT(), "3ef875de018cc4db"},
		{"sparse", sparseAFT(), "ceb4c7623f8671d3"},
		{"empty", &AFT{Device: "r0"}, "cbf29ce484222325"},
	} {
		if got := tc.a.Fingerprint(); got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder("r1")
	nh1 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	nh1again := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
	if nh1 != nh1again {
		t.Error("identical next hops not deduplicated")
	}
	nh2 := b.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet2"})
	if nh1 == nh2 {
		t.Error("distinct next hops merged")
	}
	g := b.AddGroup([]uint64{nh1, nh2})
	gReordered := b.AddGroup([]uint64{nh2, nh1})
	if g != gReordered {
		t.Error("group dedup not order-insensitive")
	}
}

// TestBuilderGroupKeys checks the group key: permutations share a group,
// while index lists whose decimal digits concatenate alike, or whose
// indices need multi-byte encodings, stay apart.
func TestBuilderGroupKeys(t *testing.T) {
	b := NewBuilder("r1")
	for i := 0; i < 300; i++ {
		b.AddNextHop(NextHop{IPAddress: netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}).String()})
	}
	distinct := [][]uint64{
		{1, 23}, {12, 3}, {123},
		{1}, {127}, {128}, {129}, {1, 128}, {128, 1, 2}, {255}, {256}, {257}, {2, 256}, {384},
		{1, 1, 2},
	}
	ids := map[uint64][]uint64{}
	for _, g := range distinct {
		id := b.AddGroup(g)
		if prev, ok := ids[id]; ok {
			t.Errorf("groups %v and %v share id %d", prev, g, id)
		}
		ids[id] = g
	}
	for _, perm := range [][]uint64{{23, 1}, {3, 12}, {128, 1}, {2, 1, 128}, {256, 2}, {1, 2, 1}} {
		id := b.AddGroup(perm)
		if _, ok := ids[id]; !ok {
			t.Errorf("permutation %v got a new group %d", perm, id)
		}
	}
	if got := len(b.Build().NextHopGroups); got != len(distinct) {
		t.Errorf("built %d groups, want %d", got, len(distinct))
	}
}

// TestBuilderHopKeys checks the next-hop key: label stacks that print alike
// once concatenated, a nil stack, and the drop and receive flags all keep
// hops apart, while nil and empty stacks are the same stack.
func TestBuilderHopKeys(t *testing.T) {
	b := NewBuilder("r1")
	base := NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"}
	with := func(f func(*NextHop)) NextHop { nh := base; f(&nh); return nh }
	hops := []NextHop{
		base,
		with(func(nh *NextHop) { nh.PushedLabels = []uint32{1, 2} }),
		with(func(nh *NextHop) { nh.PushedLabels = []uint32{12} }),
		with(func(nh *NextHop) { nh.PushedLabels = []uint32{1} }),
		with(func(nh *NextHop) { nh.PushedLabels = []uint32{1 << 16} }),
		{Drop: true},
		{Receive: true},
		{Drop: true, Receive: true},
	}
	seen := map[uint64]int{}
	for i, nh := range hops {
		idx := b.AddNextHop(nh)
		if j, ok := seen[idx]; ok {
			t.Errorf("hops %d (%+v) and %d (%+v) share index %d", j, hops[j], i, nh, idx)
		}
		seen[idx] = i
	}
	if b.AddNextHop(with(func(nh *NextHop) { nh.PushedLabels = []uint32{} })) != b.AddNextHop(base) {
		t.Error("empty and nil label stacks are different hops")
	}
	if b.AddNextHop(with(func(nh *NextHop) { nh.PushedLabels = []uint32{1, 2} })) != b.AddNextHop(hops[1]) {
		t.Error("identical labeled hop not deduplicated")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	a := sampleAFT()
	data, err := a.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(got) {
		t.Error("round trip changed forwarding semantics")
	}
	if got.Device != "r1" || len(got.IPv4Entries) != 3 || len(got.LabelEntries) != 1 {
		t.Errorf("round trip = %+v", got)
	}
}

func TestValidateErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*AFT)
		want   string
	}{
		{"dup nh index", func(a *AFT) { a.NextHops = append(a.NextHops, NextHop{Index: 1}) }, "duplicate next-hop"},
		{"dup group", func(a *AFT) { a.NextHopGroups = append(a.NextHopGroups, NextHopGroup{ID: 1, NextHops: []uint64{1}}) }, "duplicate group"},
		{"empty group", func(a *AFT) { a.NextHopGroups = append(a.NextHopGroups, NextHopGroup{ID: 99}) }, "no next hops"},
		{"missing nh", func(a *AFT) { a.NextHopGroups[0].NextHops = []uint64{42} }, "missing next hop"},
		{"bad prefix", func(a *AFT) { a.IPv4Entries[0].Prefix = "zoo" }, "bad prefix"},
		{"missing group", func(a *AFT) { a.IPv4Entries[0].NextHopGroup = 42 }, "missing group"},
		{"label missing group", func(a *AFT) { a.LabelEntries[0].NextHopGroup = 42 }, "missing group"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			a := sampleAFT()
			tc.mutate(a)
			err := a.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	if _, err := Unmarshal([]byte(`{`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"device":"r1","ipv4-unicast":[{"prefix":"10.0.0.0/8","next-hop-group":5}],"next-hop-groups":[],"next-hops":[]}`)); err == nil {
		t.Error("dangling group reference accepted")
	}
}

func TestFingerprintStability(t *testing.T) {
	a, b := sampleAFT(), sampleAFT()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical AFTs have different fingerprints")
	}
	// A forwarding-relevant change must alter the fingerprint.
	b.IPv4Entries[0].NextHopGroup = 3
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("changed forwarding, same fingerprint")
	}
}

func TestFingerprintIgnoresMetadata(t *testing.T) {
	a, b := sampleAFT(), sampleAFT()
	b.IPv4Entries[0].Metric = 999
	b.IPv4Entries[0].Origin = "other"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("metadata change altered fingerprint")
	}
}

func TestGroupHops(t *testing.T) {
	a := sampleAFT()
	// Find the ECMP entry for 10.0.0.0/8.
	var ecmpGroup uint64
	for _, e := range a.IPv4Entries {
		if e.Prefix == "10.0.0.0/8" {
			ecmpGroup = e.NextHopGroup
		}
	}
	hops := a.GroupHops(ecmpGroup)
	if len(hops) != 2 {
		t.Fatalf("hops = %+v, want 2", hops)
	}
	if a.GroupHops(999) != nil {
		t.Error("GroupHops for missing group returned entries")
	}
}

func TestEqualNil(t *testing.T) {
	var a *AFT
	if !a.Equal(nil) {
		t.Error("nil != nil")
	}
	if a.Equal(sampleAFT()) {
		t.Error("nil == non-nil")
	}
}

func BenchmarkFingerprint(b *testing.B) {
	bld := NewBuilder("r1")
	for i := 0; i < 10000; i++ {
		nh := bld.AddNextHop(NextHop{IPAddress: "10.0.0.1", Interface: "Ethernet1"})
		g := bld.AddGroup([]uint64{nh})
		bld.AddIPv4(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24), g, "ebgp", 0)
	}
	a := bld.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Fingerprint()
	}
}
