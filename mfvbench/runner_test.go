package main

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"testing"
	"time"

	"mfv"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so quantile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{250, 0.9, 225, 25, true},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{20, 0.5, 10, 10, true},
	} {
		got, ok := quantile(ramp(tc.n), tc.q)
		if got != tc.want || ok != tc.ok || beyond(tc.n, tc.q) != tc.beyond {
			t.Errorf("n=%d q=%v: got %v ok=%v beyond=%d, want %v ok=%v beyond=%d",
				tc.n, tc.q, got, ok, beyond(tc.n, tc.q), tc.want, tc.ok, tc.beyond)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}

// square returns a 4-cycle a-b-c-d with a pendant e hanging off d, EOS
// loopbacks on a-d and a Junos-like one on e.
func square() *mfv.Topology {
	topo := &mfv.Topology{}
	for i, n := range []string{"a", "b", "c", "d"} {
		topo.Nodes = append(topo.Nodes, mfv.Node{Name: n, Vendor: mfv.VendorEOS,
			Config: fmt.Sprintf("hostname %s\ninterface Ethernet1\n   ip address 10.0.%d.0/31\ninterface Loopback0\n   ip address 3.3.0.%d/32\n", n, i, i+1)})
	}
	topo.Nodes = append(topo.Nodes, mfv.Node{Name: "e", Vendor: mfv.VendorJunosLike,
		Config: "interfaces {\n    Loopback0 { unit 0 { family inet { address 3.3.0.5/32; } } }\n}\n"})
	link := func(a, z string) mfv.Link {
		return mfv.Link{A: mfv.Endpoint{Node: a, Interface: "to-" + z}, Z: mfv.Endpoint{Node: z, Interface: "to-" + a}}
	}
	topo.Links = []mfv.Link{link("a", "b"), link("b", "c"), link("c", "d"), link("d", "a"), link("d", "e")}
	return topo
}

func TestLoopbackOracle(t *testing.T) {
	topo := square()
	lo, err := loopbacks(topo)
	if err != nil {
		t.Fatal(err)
	}
	if lo["a"] != netip.MustParseAddr("3.3.0.1") || lo["e"] != netip.MustParseAddr("3.3.0.5") {
		t.Fatalf("loopbacks = %v", lo)
	}
	if b := bridges(topo); len(b) != 1 || !b[4] {
		t.Fatalf("bridges = %v, want only link 4 (d-e)", b)
	}
	owner := map[netip.Addr]string{}
	for n, a := range lo {
		owner[a] = n
	}
	// truth answers from an explicit list of unreachable pairs.
	truth := func(cut map[[2]string]bool) func(string, netip.Addr) bool {
		return func(src string, dst netip.Addr) bool {
			d := owner[dst]
			return !cut[[2]string{src, d}] && !cut[[2]string{d, src}]
		}
	}
	// Cutting a-b leaves the graph connected: every flow is delivered.
	if err := checkLoopbackFlows(topo, lo, map[int]bool{0: true}, truth(nil)); err != nil {
		t.Errorf("cut a-b: %v", err)
	}
	// Cutting d-e isolates e from everyone else.
	isolated := map[[2]string]bool{}
	for _, n := range []string{"a", "b", "c", "d"} {
		isolated[[2]string{n, "e"}] = true
	}
	if err := checkLoopbackFlows(topo, lo, map[int]bool{4: true}, truth(isolated)); err != nil {
		t.Errorf("cut d-e: %v", err)
	}
	// A verifier that still delivers to e after the cut is caught, as is one
	// that loses a-c while the ring is intact.
	if err := checkLoopbackFlows(topo, lo, map[int]bool{4: true}, truth(nil)); err == nil {
		t.Error("cut d-e: a verifier delivering to e passed")
	}
	if err := checkLoopbackFlows(topo, lo, nil, truth(map[[2]string]bool{{"a", "c"}: true})); err == nil {
		t.Error("intact: a verifier losing a-c passed")
	}
}

// TestRefSamplerShare checks that the reference computation allocates
// nothing, keeps up with refShare of the op time, and runs at least once
// however short the ops.
func TestRefSamplerShare(t *testing.T) {
	r := newRefSampler()
	if n := testing.AllocsPerRun(3, r.work); n != 0 {
		t.Errorf("the reference computation allocated %v times", n)
	}
	r.after(0)
	if len(r.walls) != 1 || len(r.cpus) != 1 {
		t.Fatalf("after a zero-length op: %d samples, want 1", len(r.walls))
	}
	n := len(r.walls)
	r.after(time.Nanosecond)
	if len(r.walls) != n {
		t.Errorf("a 1ns op owed no sample, but %d ran", len(r.walls)-n)
	}
	total := time.Nanosecond
	for _, op := range []time.Duration{300 * time.Millisecond, 200 * time.Millisecond} {
		r.after(op)
		total += op
	}
	if want := time.Duration(refShare * float64(total)); r.spent < want {
		t.Errorf("reference ran %v of %v owed", r.spent, want)
	}
}

func TestSelfTime(t *testing.T) {
	ns := func(v int) int64 { return int64(v) * int64(time.Millisecond) }
	parent := span{ID: 1, StartNS: ns(0), EndNS: ns(100)}
	for _, tc := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 100},
		{"sequential", []span{{StartNS: ns(10), EndNS: ns(30)}, {StartNS: ns(50), EndNS: ns(60)}}, 70},
		{"overlapping", []span{{StartNS: ns(10), EndNS: ns(30)}, {StartNS: ns(20), EndNS: ns(40)}}, 70},
		{"nested and clipped", []span{{StartNS: ns(90), EndNS: ns(120)}, {StartNS: ns(5), EndNS: ns(50)}, {StartNS: ns(10), EndNS: ns(20)}}, 45},
	} {
		if got := selfTime(parent, tc.children); got != time.Duration(ns(tc.want)) {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}

	// Through the tracer: a sweep span whose replica-build child takes part
	// of it.
	tr := newTracer()
	endOp := tr.beginOp()
	endSweep := tr.begin(spanSweep)
	endBuild := tr.begin(spanReplicas)
	time.Sleep(5 * time.Millisecond)
	endBuild()
	time.Sleep(5 * time.Millisecond)
	endSweep()
	endOp()
	sweep, build := tr.spans[1], tr.spans[2]
	if build.Parent != sweep.ID || sweep.Parent != tr.spans[0].ID {
		t.Fatalf("parents: %+v", tr.spans)
	}
	if got, want := selfMedian(spanSweep)(tr), float64(sweep.dur()-build.dur())/1e6; got != want {
		t.Errorf("sweep self time %vms, want %vms", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the runner's tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for n := range workloads {
		have = append(have, n)
	}
	sort.Strings(names)
	sort.Strings(have)
	if fmt.Sprint(names) != fmt.Sprint(have) {
		t.Errorf("workloads %v, runner has %v", names, have)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the runner", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, runner %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	var layers []metricDef
	for _, m := range perLayer {
		layers = append(layers, m.metricDef)
	}
	check("per_layer", spec.PerLayer, layers)
}
