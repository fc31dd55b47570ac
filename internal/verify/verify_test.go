package verify

import (
	"net/netip"
	"testing"

	"mfv/internal/aft"
	"mfv/internal/topology"
)

func pfx(s string) netip.Prefix { return netip.MustParsePrefix(s) }
func addr(s string) netip.Addr  { return netip.MustParseAddr(s) }

// aftSpec is a compact way to build a device AFT for tests.
type aftSpec struct {
	device string
	// routes: prefix -> one of "recv", "drop", "ifname" or "ifname|ifname2"
	// for ECMP.
	routes map[string]string
}

func buildAFT(s aftSpec) *aft.AFT {
	b := aft.NewBuilder(s.device)
	for p, action := range s.routes {
		var idx []uint64
		switch action {
		case "recv":
			idx = append(idx, b.AddNextHop(aft.NextHop{Receive: true}))
		case "drop":
			idx = append(idx, b.AddNextHop(aft.NextHop{Drop: true}))
		default:
			for _, intf := range splitPipe(action) {
				idx = append(idx, b.AddNextHop(aft.NextHop{Interface: intf, IPAddress: "10.0.0.1"}))
			}
		}
		b.AddIPv4(pfx(p), b.AddGroup(idx), "test", 0)
	}
	return b.Build()
}

func splitPipe(s string) []string {
	var out []string
	cur := ""
	for _, c := range s {
		if c == '|' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(c)
	}
	return append(out, cur)
}

// lineNet builds r1 -- r2 -- r3 with r3 owning 9.9.9.9/32 and everyone
// routing 9.0.0.0/8 toward r3.
func lineNet() (*topology.Topology, map[string]*aft.AFT) {
	topo := topology.Line(3, topology.VendorEOS)
	afts := map[string]*aft.AFT{
		"r1": buildAFT(aftSpec{device: "r1", routes: map[string]string{
			"9.0.0.0/8":  "Ethernet1",
			"1.1.1.1/32": "recv",
		}}),
		"r2": buildAFT(aftSpec{device: "r2", routes: map[string]string{
			"9.0.0.0/8":  "Ethernet2",
			"1.1.1.2/32": "recv",
		}}),
		"r3": buildAFT(aftSpec{device: "r3", routes: map[string]string{
			"9.9.9.9/32": "recv",
			"9.0.0.0/8":  "drop", // more-specific recv wins for 9.9.9.9
			"1.1.1.3/32": "recv",
		}}),
	}
	return topo, afts
}

func mustNet(t *testing.T, topo *topology.Topology, afts map[string]*aft.AFT) *Network {
	t.Helper()
	n, err := NewNetwork(topo, afts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTraceDelivered(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	tr := n.Trace("r1", addr("9.9.9.9"))
	if !tr.Delivered() {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Paths) != 1 {
		t.Fatalf("paths = %d", len(tr.Paths))
	}
	p := tr.Paths[0]
	if p.Final != "r3" || len(p.Hops) != 3 {
		t.Errorf("path = %v", p)
	}
	if p.Hops[0].Device != "r1" || p.Hops[0].Egress != "Ethernet1" {
		t.Errorf("hop0 = %+v", p.Hops[0])
	}
	if p.Hops[2].Matched != "9.9.9.9/32" {
		t.Errorf("final match = %+v", p.Hops[2])
	}
	if p.String() == "" {
		t.Error("Path.String empty")
	}
}

func TestTraceDropAndNoRoute(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	// 9.5.0.0 hits r3's drop entry.
	tr := n.Trace("r1", addr("9.5.0.1"))
	if tr.Delivered() || tr.Paths[0].Disposition != Dropped || tr.Paths[0].Final != "r3" {
		t.Errorf("trace = %+v", tr.Paths)
	}
	// 8.0.0.1 matches nothing at r1.
	tr = n.Trace("r1", addr("8.0.0.1"))
	if tr.Paths[0].Disposition != NoRoute || tr.Paths[0].Final != "r1" {
		t.Errorf("trace = %+v", tr.Paths)
	}
	// Unknown source device.
	tr = n.Trace("ghost", addr("9.9.9.9"))
	if tr.Paths[0].Disposition != NoRoute {
		t.Errorf("ghost trace = %+v", tr.Paths)
	}
}

func TestTraceExitsNetwork(t *testing.T) {
	topo := topology.Line(2, topology.VendorEOS)
	afts := map[string]*aft.AFT{
		"r1": buildAFT(aftSpec{device: "r1", routes: map[string]string{
			"0.0.0.0/0": "Ethernet9", // unwired interface: external peer
		}}),
		"r2": buildAFT(aftSpec{device: "r2", routes: map[string]string{}}),
	}
	n := mustNet(t, topo, afts)
	tr := n.Trace("r1", addr("203.0.113.1"))
	if tr.Paths[0].Disposition != ExitsNetwork {
		t.Errorf("trace = %+v", tr.Paths)
	}
}

func TestTraceECMPBranches(t *testing.T) {
	// Diamond: r1 ECMPs to r2 (Ethernet1) and r3 (Ethernet2); both deliver
	// to r4... simplified: both own the address? Build: r1 splits, r2
	// delivers, r3 drops — trace must show both branches.
	topo := &topology.Topology{
		Name: "ecmp",
		Nodes: []topology.Node{
			{Name: "r1", Vendor: topology.VendorEOS},
			{Name: "r2", Vendor: topology.VendorEOS},
			{Name: "r3", Vendor: topology.VendorEOS},
		},
		Links: []topology.Link{
			{A: topology.Endpoint{Node: "r1", Interface: "Ethernet1"}, Z: topology.Endpoint{Node: "r2", Interface: "Ethernet1"}},
			{A: topology.Endpoint{Node: "r1", Interface: "Ethernet2"}, Z: topology.Endpoint{Node: "r3", Interface: "Ethernet1"}},
		},
	}
	afts := map[string]*aft.AFT{
		"r1": buildAFT(aftSpec{device: "r1", routes: map[string]string{"9.0.0.0/8": "Ethernet1|Ethernet2"}}),
		"r2": buildAFT(aftSpec{device: "r2", routes: map[string]string{"9.0.0.0/8": "recv"}}),
		"r3": buildAFT(aftSpec{device: "r3", routes: map[string]string{"9.0.0.0/8": "drop"}}),
	}
	n := mustNet(t, topo, afts)
	tr := n.Trace("r1", addr("9.1.2.3"))
	if len(tr.Paths) != 2 {
		t.Fatalf("paths = %+v", tr.Paths)
	}
	if !tr.Delivered() {
		t.Error("ECMP delivery branch missed")
	}
	outcome := tr.Outcome().String()
	if outcome != "Delivered@r2,Dropped@r3" {
		t.Errorf("Outcome = %q", outcome)
	}
}

func TestLoopDetection(t *testing.T) {
	topo := topology.Line(2, topology.VendorEOS)
	afts := map[string]*aft.AFT{
		"r1": buildAFT(aftSpec{device: "r1", routes: map[string]string{"9.0.0.0/8": "Ethernet1"}}),
		"r2": buildAFT(aftSpec{device: "r2", routes: map[string]string{"9.0.0.0/8": "Ethernet1"}}),
	}
	n := mustNet(t, topo, afts)
	tr := n.Trace("r1", addr("9.1.1.1"))
	if tr.Paths[0].Disposition != Loop {
		t.Fatalf("trace = %+v", tr.Paths)
	}
	loops := n.DetectLoops()
	if len(loops) == 0 {
		t.Error("DetectLoops found nothing")
	}
	found := false
	for _, l := range loops {
		if l.Src == "r1" && pfx("9.0.0.0/8").Contains(l.Dst) {
			found = true
		}
	}
	if !found {
		t.Errorf("loops = %+v", loops)
	}
}

func TestDetectBlackHoles(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	holes := n.DetectBlackHoles()
	// 9.0.0.0/8 minus 9.9.9.9 is dropped at r3; plus plenty of NoRoute
	// classes (unrouted space).
	foundDrop := false
	for _, h := range holes {
		if h.Disposition == Dropped && pfx("9.0.0.0/8").Contains(h.Dst) {
			foundDrop = true
		}
	}
	if !foundDrop {
		t.Errorf("holes = %+v", holes)
	}
}

func TestEquivalenceClassesPartition(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	classes := n.EquivalenceClasses()
	if len(classes) == 0 {
		t.Fatal("no classes")
	}
	// Class representatives must be sorted and unique and include 0.0.0.0.
	if classes[0] != addr("0.0.0.0") {
		t.Errorf("first class = %v", classes[0])
	}
	for i := 1; i < len(classes); i++ {
		if !classes[i-1].Less(classes[i]) {
			t.Fatalf("classes not sorted/unique at %d: %v %v", i, classes[i-1], classes[i])
		}
	}
	// Every FIB prefix boundary must start a class: 9.9.9.9 and 9.9.9.10
	// (the /32's successor) must both be representatives.
	want := map[netip.Addr]bool{
		addr("9.0.0.0"): false, addr("9.9.9.9"): false, addr("9.9.9.10"): false,
		addr("10.0.0.0"): false, // successor of 9.0.0.0/8
	}
	for _, c := range classes {
		if _, ok := want[c]; ok {
			want[c] = true
		}
	}
	for a, seen := range want {
		if !seen {
			t.Errorf("boundary %v not a class representative", a)
		}
	}
}

// Property: all addresses within one equivalence class get the same outcome
// from every source (sampled at class start, middle-ish, and end-1).
func TestClassMembersForwardIdentically(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	classes := n.EquivalenceClasses()
	for i, rep := range classes {
		var end uint32 = 0xffffffff
		if i+1 < len(classes) {
			end = addrU32(classes[i+1]) - 1
		}
		start := addrU32(rep)
		mid := start + (end-start)/2
		for _, src := range n.Devices() {
			want := n.Trace(src, rep).Outcome().String()
			for _, probe := range []uint32{mid, end} {
				got := n.Trace(src, u32Addr(probe)).Outcome().String()
				if got != want {
					t.Fatalf("class [%v..%v] not uniform from %s: %v -> %q, rep %q",
						rep, u32Addr(end), src, u32Addr(probe), got, want)
				}
			}
		}
	}
}

func TestAllPairs(t *testing.T) {
	topo, afts := lineNet()
	n := mustNet(t, topo, afts)
	m := n.AllPairs()
	if len(m.Dsts) != 4 { // 1.1.1.1-3 + 9.9.9.9
		t.Fatalf("owned addrs = %v", m.Dsts)
	}
	// r1 reaches 9.9.9.9 but nobody reaches 1.1.1.1 except r1 itself (no
	// return routes configured in this synthetic net).
	if !m.Reach["r1"][addr("9.9.9.9")] {
		t.Error("r1 cannot reach 9.9.9.9")
	}
	if m.Reach["r2"][addr("1.1.1.1")] {
		t.Error("r2 unexpectedly reaches 1.1.1.1")
	}
	if m.FullMesh() {
		t.Error("FullMesh true on partial net")
	}
	if o, ok := n.Owner(addr("9.9.9.9")); !ok || o != "r3" {
		t.Errorf("Owner = %v, %v", o, ok)
	}
}

func TestDifferentialDetectsChange(t *testing.T) {
	topo, aftsA := lineNet()
	// Snapshot B: r2 loses its route toward r3.
	_, aftsB := lineNet()
	aftsB["r2"] = buildAFT(aftSpec{device: "r2", routes: map[string]string{
		"1.1.1.2/32": "recv",
	}})
	a := mustNet(t, topo, aftsA)
	b := mustNet(t, topo, aftsB)
	diffs := Differential(a, b)
	if len(diffs) == 0 {
		t.Fatal("no differences found")
	}
	found := false
	for _, d := range diffs {
		if d.Src == "r1" && pfx("9.0.0.0/8").Contains(d.Dst) {
			if d.Before.String() == "" || d.After.String() == "" || d.Before.String() == d.After.String() {
				t.Errorf("diff = %+v", d)
			}
			found = true
		}
		if d.String() == "" {
			t.Error("empty diff string")
		}
	}
	if !found {
		t.Errorf("diffs = %+v", diffs)
	}
}

func TestDifferentialIdenticalSnapshotsEmpty(t *testing.T) {
	topo, afts := lineNet()
	a := mustNet(t, topo, afts)
	b := mustNet(t, topo, afts)
	if diffs := Differential(a, b); len(diffs) != 0 {
		t.Errorf("identical snapshots differ: %+v", diffs)
	}
}

func TestNewNetworkRejectsUnknownDevice(t *testing.T) {
	topo := topology.Line(2, topology.VendorEOS)
	afts := map[string]*aft.AFT{
		"zz": buildAFT(aftSpec{device: "zz", routes: map[string]string{}}),
	}
	if _, err := NewNetwork(topo, afts); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDispositionStrings(t *testing.T) {
	for d, want := range map[Disposition]string{
		Delivered: "Delivered", ExitsNetwork: "ExitsNetwork", Dropped: "Dropped",
		NoRoute: "NoRoute", Loop: "Loop", Disposition(9): "Disposition(9)",
	} {
		if d.String() != want {
			t.Errorf("%d.String() = %q", d, d.String())
		}
	}
}
