package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"testing/quick"

	"mfv/internal/aft"
	"mfv/internal/topology"
)

// randomAFT builds one device's random AFT with the same distribution as
// buildRandom, so delta tests can regenerate individual devices.
func randomAFT(r *rand.Rand, name string, prefixes int) *aft.AFT {
	b := aft.NewBuilder(name)
	addRandomRoutes(r, b, prefixes)
	return b.Build()
}

func addRandomRoutes(r *rand.Rand, b *aft.Builder, prefixes int) {
	for p := 0; p < prefixes; p++ {
		var a [4]byte
		r.Read(a[:])
		prefix := netip.PrefixFrom(netip.AddrFrom4(a), 1+r.Intn(32)).Masked()
		var idx uint64
		switch r.Intn(4) {
		case 0:
			idx = b.AddNextHop(aft.NextHop{Receive: true})
		case 1:
			idx = b.AddNextHop(aft.NextHop{Drop: true})
		case 2:
			idx = b.AddNextHop(aft.NextHop{Interface: "Ethernet1", IPAddress: "10.0.0.1"})
		default:
			idx = b.AddNextHop(aft.NextHop{Interface: "Ethernet2", IPAddress: "10.0.0.2"})
		}
		b.AddIPv4(prefix, b.AddGroup([]uint64{idx}), "test", 0)
	}
}

// longRingAFT is randomAFT plus a default route one way around
// topology.Ring: r1 leaves on Ethernet1, every other router on Ethernet2.
// Unmatched classes then walk the whole ring, so on a ring of more than
// maxPathHops routers the walk hits the TTL cap before it revisits a router.
func longRingAFT(r *rand.Rand, name string, prefixes int) *aft.AFT {
	b := aft.NewBuilder(name)
	fwd := "Ethernet2"
	if name == "r1" {
		fwd = "Ethernet1"
	}
	hop := b.AddNextHop(aft.NextHop{Interface: fwd, IPAddress: "10.0.0.1"})
	b.AddIPv4(netip.MustParsePrefix("0.0.0.0/0"), b.AddGroup([]uint64{hop}), "test", 0)
	addRandomRoutes(r, b, prefixes)
	return b.Build()
}

// randomSnapshotPair builds a random before snapshot, then a mutated after
// snapshot in which a random non-empty subset of devices got fresh AFTs and
// every other device shares the before AFT pointer — the same sharing shape
// the incremental pipeline produces. Returns both AFT maps and the sorted
// dirty-device names.
func randomSnapshotPair(r *rand.Rand, nodes, prefixes int) (*topology.Topology, map[string]*aft.AFT, map[string]*aft.AFT, []string) {
	topo := topology.Ring(nodes, topology.VendorEOS)
	before, after, dirty := randomPairOn(r, topo, prefixes, randomAFT)
	return topo, before, after, dirty
}

// randomPairOn is randomSnapshotPair over any topology, with gen building
// each device's AFT.
func randomPairOn(r *rand.Rand, topo *topology.Topology, prefixes int, gen func(*rand.Rand, string, int) *aft.AFT) (map[string]*aft.AFT, map[string]*aft.AFT, []string) {
	before := map[string]*aft.AFT{}
	for _, node := range topo.Nodes {
		before[node.Name] = gen(r, node.Name, prefixes)
	}
	after := map[string]*aft.AFT{}
	for name, a := range before {
		after[name] = a
	}
	var dirty []string
	for _, node := range topo.Nodes {
		if r.Intn(3) == 0 {
			after[node.Name] = gen(r, node.Name, 1+r.Intn(prefixes+1))
			dirty = append(dirty, node.Name)
		}
	}
	if len(dirty) == 0 { // force at least one changed device
		name := topo.Nodes[r.Intn(len(topo.Nodes))].Name
		after[name] = gen(r, name, 1+r.Intn(prefixes+1))
		dirty = append(dirty, name)
	}
	sort.Strings(dirty)
	return before, after, dirty
}

// Property: DeltaDifferential is byte-identical to the full Differential on
// random snapshot pairs, for workers 1, 2, and 8, whether the after network
// is built from scratch or incrementally via UpdateFrom, and whether dirty
// is exact or a superset (all devices). Beyond the random rings, multi-region
// pairs exercise the per-component solve under the taint restriction, and a
// 70-router ring takes the capped Trace fallback for large components.
func TestQuickDeltaMatchesFullDifferential(t *testing.T) {
	check := func(topo *topology.Topology, beforeAFTs, afterAFTs map[string]*aft.AFT, dirty []string) bool {
		before, err := NewNetwork(topo, beforeAFTs)
		if err != nil {
			return false
		}
		afterFresh, err := NewNetwork(topo, afterAFTs)
		if err != nil {
			return false
		}
		afterIncr, err := before.UpdateFrom(afterAFTs, dirty)
		if err != nil {
			return false
		}
		ref := fmt.Sprintf("%+v", Queries{Workers: 1}.Differential(before, afterFresh))
		superset := before.Devices()
		for _, w := range []int{1, 2, 8} {
			q := Queries{Workers: w}
			for _, after := range []*Network{afterFresh, afterIncr} {
				if fmt.Sprintf("%+v", q.DeltaDifferential(before, after, dirty)) != ref {
					return false
				}
				if fmt.Sprintf("%+v", q.DeltaDifferential(before, after, superset)) != ref {
					return false
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo, beforeAFTs, afterAFTs, dirty := randomSnapshotPair(r, 3+r.Intn(4), 1+r.Intn(12))
		return check(topo, beforeAFTs, afterAFTs, dirty)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(83))}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(84))
	for i := 0; i < 5; i++ {
		topo := topology.MultiRegion(2+r.Intn(3), 3+r.Intn(3), topology.VendorEOS)
		beforeAFTs, afterAFTs, dirty := randomPairOn(r, topo, 1+r.Intn(12), randomAFT)
		if !check(topo, beforeAFTs, afterAFTs, dirty) {
			t.Errorf("%s pair %d: delta differs from full differential", topo.Name, i)
		}
	}
	ring := topology.Ring(70, topology.VendorEOS)
	beforeAFTs, afterAFTs, dirty := randomPairOn(r, ring, 0, longRingAFT)
	if !check(ring, beforeAFTs, afterAFTs, dirty) {
		t.Error("ring-70 pair: delta differs from full differential")
	}
}

// Property: a network rebuilt incrementally with UpdateFrom is
// indistinguishable from one built from scratch — same devices, same
// equivalence classes, same owners, and an empty differential between them.
func TestQuickUpdateFromEquivalentToRebuild(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		topo, beforeAFTs, afterAFTs, dirty := randomSnapshotPair(r, 3+r.Intn(4), 1+r.Intn(12))
		before, err := NewNetwork(topo, beforeAFTs)
		if err != nil {
			return false
		}
		fresh, err := NewNetwork(topo, afterAFTs)
		if err != nil {
			return false
		}
		incr, err := before.UpdateFrom(afterAFTs, dirty)
		if err != nil {
			return false
		}
		if fmt.Sprintf("%v", incr.Devices()) != fmt.Sprintf("%v", fresh.Devices()) {
			return false
		}
		if fmt.Sprintf("%v", incr.EquivalenceClasses()) != fmt.Sprintf("%v", fresh.EquivalenceClasses()) {
			return false
		}
		if fmt.Sprintf("%v", incr.OwnedAddrs()) != fmt.Sprintf("%v", fresh.OwnedAddrs()) {
			return false
		}
		return len(Differential(fresh, incr)) == 0 && len(Differential(incr, fresh)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(89))}); err != nil {
		t.Error(err)
	}
}

// Property: DeltaDifferential(x, x, any dirty set) is always empty — dirty
// devices that did not actually change forward nothing to the diff.
func TestQuickDeltaReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(3), 1+r.Intn(12))
		if err != nil {
			return false
		}
		return len(DeltaDifferential(net, net, net.Devices())) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(97))}); err != nil {
		t.Error(err)
	}
}

func TestUpdateFromRejectsUnknownDevice(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	topo, afts, _, _ := randomSnapshotPair(r, 3, 4)
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*aft.AFT{}
	for name, a := range afts {
		bad[name] = a
	}
	bad["ghost"] = randomAFT(r, "ghost", 2)
	if _, err := n.UpdateFrom(bad, []string{"ghost"}); err == nil {
		t.Error("UpdateFrom accepted an AFT for a device outside the topology")
	}
}

// UpdateFrom must handle devices leaving (crashed, empty snapshot) and
// rejoining the snapshot, not only in-place changes.
func TestUpdateFromDeviceRemovalAndReturn(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	topo, afts, _, _ := randomSnapshotPair(r, 4, 5)
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	without := map[string]*aft.AFT{}
	for name, a := range afts {
		if name != "r2" {
			without[name] = a
		}
	}
	gone, err := n.UpdateFrom(without, []string{"r2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(gone.Devices()) != 3 {
		t.Fatalf("devices after removal = %v", gone.Devices())
	}
	back, err := gone.UpdateFrom(afts, []string{"r2"})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	if len(Differential(fresh, back)) != 0 {
		t.Error("returning device differs from a scratch rebuild")
	}
}

// TestOutcomeDelivered: Outcome.Has and Diff.Lost match the disposition,
// never the device name, so a device called "rDelivered" cannot flip a
// verdict.
func TestOutcomeDelivered(t *testing.T) {
	tests := []struct {
		outcome Outcome
		want    bool
	}{
		{Outcome{{Delivered, "r1"}}, true},
		{Outcome{{Dropped, "r2"}}, false},
		{Outcome{{NoRoute, "r1"}}, false},
		{Outcome{{Dropped, "r2"}, {Delivered, "r3"}}, true},
		{Outcome{{Delivered, "r1"}, {Dropped, "r2"}}, true},
		{Outcome{{Loop, "r1"}, {NoRoute, "r2"}}, false},
		{nil, false},
		{Outcome{{NoRoute, "rDelivered"}}, false}, // device name containing the word
		{Outcome{{ExitsNetwork, "Delivered"}}, false},
	}
	delivered, lost := Outcome{{Delivered, "r9"}}, Outcome{{NoRoute, "r9"}}
	for _, tc := range tests {
		if got := tc.outcome.Has(Delivered); got != tc.want {
			t.Errorf("%q.Has(Delivered) = %v, want %v", tc.outcome, got, tc.want)
		}
		if got := (Diff{Before: tc.outcome, After: lost}).Lost(); got != tc.want {
			t.Errorf("Lost(%q => %q) = %v, want %v", tc.outcome, lost, got, tc.want)
		}
		if got := (Diff{Before: delivered, After: tc.outcome}).Lost(); got != !tc.want {
			t.Errorf("Lost(%q => %q) = %v, want %v", delivered, tc.outcome, got, !tc.want)
		}
	}
}
