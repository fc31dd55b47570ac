package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mfv/internal/aft"
	"mfv/internal/topology"
)

// buildRandom builds a random ring topology with random (possibly
// nonsensical) AFTs — routes may point anywhere, including into loops and
// unwired ports. The verifier must stay total and consistent over all of
// them.
func buildRandom(r *rand.Rand, nodes, prefixes int) (*topology.Topology, *Network, error) {
	topo := topology.Ring(nodes, topology.VendorEOS)
	afts := map[string]*aft.AFT{}
	for i := 1; i <= nodes; i++ {
		name := fmt.Sprintf("r%d", i)
		b := aft.NewBuilder(name)
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
		afts[name] = b.Build()
	}
	net, err := NewNetwork(topo, afts)
	return topo, net, err
}

// Property: every trace from every device terminates with a disposition,
// whatever the (random, possibly looping) forwarding state.
func TestQuickTracesAlwaysTerminate(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(20))
		if err != nil {
			return false
		}
		for _, src := range net.Devices() {
			for i := 0; i < 20; i++ {
				var a [4]byte
				r.Read(a[:])
				tr := net.Trace(src, netip.AddrFrom4(a))
				if len(tr.Paths) == 0 {
					return false
				}
				for _, p := range tr.Paths {
					if len(p.Hops) > maxPathHops+1 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(71))}); err != nil {
		t.Error(err)
	}
}

// Property: equivalence classes are uniform — every member of a class gets
// the same outcome as its representative, from every device, on random
// networks.
func TestQuickECUniformityRandomNetworks(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3, 1+r.Intn(12))
		if err != nil {
			return false
		}
		classes := net.EquivalenceClasses()
		for i, rep := range classes {
			var end uint32 = 0xffffffff
			if i+1 < len(classes) {
				end = addrU32(classes[i+1]) - 1
			}
			start := addrU32(rep)
			// Probe two random members of the class.
			for k := 0; k < 2; k++ {
				member := start
				if end > start {
					member = start + uint32(r.Int63n(int64(end-start)+1))
				}
				for _, src := range net.Devices() {
					if !slices.Equal(net.Trace(src, rep).Outcome(), net.Trace(src, u32Addr(member)).Outcome()) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// Property: Differential(x, x) is always empty.
func TestQuickDifferentialReflexive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(3), 1+r.Intn(15))
		if err != nil {
			return false
		}
		return len(Differential(net, net)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(29))}); err != nil {
		t.Error(err)
	}
}

// Property: Differential output is byte-identical for workers = 1, 2, 8 on
// random networks — parallelism must never change what a query returns.
func TestQuickDifferentialDeterministicAcrossWorkers(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, before, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		_, after, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		ref := fmt.Sprintf("%+v", Queries{Workers: 1}.Differential(before, after))
		for _, w := range []int{2, 8} {
			if fmt.Sprintf("%+v", Queries{Workers: w}.Differential(before, after)) != ref {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}

// Property: the memoized per-device solver agrees with the unmemoized Trace
// walk for every (source, class-representative) flow on random networks,
// and on a 70-router ring whose walks reach the TTL cap.
func TestQuickMemoizationMatchesTrace(t *testing.T) {
	capped := false
	matches := func(net *Network) bool {
		for _, rep := range net.EquivalenceClasses() {
			oc := net.outcomesFor(rep)
			for _, src := range net.Devices() {
				tr := net.Trace(src, rep)
				if !slices.Equal(oc.outcome(src), tr.Outcome()) {
					return false
				}
				for _, p := range tr.Paths {
					capped = capped || (p.Disposition == Loop && len(p.Hops) == maxPathHops)
				}
			}
		}
		return true
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 3+r.Intn(4), 1+r.Intn(15))
		if err != nil {
			return false
		}
		return matches(net)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(53))}); err != nil {
		t.Error(err)
	}
	r := rand.New(rand.NewSource(54))
	ring := topology.Ring(70, topology.VendorEOS)
	afts := map[string]*aft.AFT{}
	for _, node := range ring.Nodes {
		afts[node.Name] = longRingAFT(r, node.Name, 2)
	}
	net, err := NewNetwork(ring, afts)
	if err != nil {
		t.Fatal(err)
	}
	if !matches(net) {
		t.Error("ring-70: memoized outcomes differ from Trace")
	}
	if !capped {
		t.Error("ring-70 never reached the maxPathHops cap")
	}
}

// Property: Outcome.String renders what the string outcomes it replaced
// did: "Disposition@device" fragments, sorted as strings, deduplicated and
// joined by commas. Dispositions sort by name, not by value, and device
// names like r10 sort between r1 and r2.
func TestQuickOutcomeCanonicalOrder(t *testing.T) {
	devices := []string{"r1", "r10", "r2", "Delivered", "rDelivered", "Loop", "g1n1"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var tr Trace
		var frags []string
		for i := r.Intn(10); i > 0; i-- {
			p := Path{Disposition: Disposition(r.Intn(5)), Final: devices[r.Intn(len(devices))]}
			tr.Paths = append(tr.Paths, p)
			frags = append(frags, p.Disposition.String()+"@"+p.Final)
		}
		sort.Strings(frags)
		return tr.Outcome().String() == strings.Join(slices.Compact(frags), ",")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(59))}); err != nil {
		t.Error(err)
	}
}

// Property: utilization conservation — for a single demand, load on any
// link never exceeds the offered rate, and delivered + lost == 1.
func TestQuickUtilizationConservation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, net, err := buildRandom(r, 4, 1+r.Intn(10))
		if err != nil {
			return false
		}
		var a [4]byte
		r.Read(a[:])
		rep := net.Utilization([]Demand{{Src: "r1", Dst: netip.AddrFrom4(a), Rate: 100}})
		for _, l := range rep.Links {
			if l.Load > 100+1e-6 {
				return false
			}
		}
		for _, u := range rep.Undeliverable {
			if u.LostFraction < -1e-9 || u.LostFraction > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(31))}); err != nil {
		t.Error(err)
	}
}
