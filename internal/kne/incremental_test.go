package kne

import (
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/kube"
	"mfv/internal/sim"
	"mfv/internal/testnet"
)

// On a quiescent network, repeated AFT extraction must be pure cache hits:
// identical generation stamps and pointer-identical tables, even across
// soft-state refreshes (prober probes, MPLS path refreshes) that change no
// forwarding behavior.
func TestAFTsPointerStableWhileQuiescent(t *testing.T) {
	e, err := New(Config{Topology: testnet.Fig2(), Sim: sim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	converge(t, e)

	afts1 := e.AFTs()
	stamps1 := e.FIBGenerations()
	e.Sim().RunFor(2 * time.Minute) // soft-state refreshes only
	afts2 := e.AFTs()
	stamps2 := e.FIBGenerations()
	for name, s := range stamps1 {
		if stamps2[name] != s {
			t.Errorf("%s: stamp moved on a quiescent network: %+v -> %+v", name, s, stamps2[name])
		}
		if afts1[name] != afts2[name] {
			t.Errorf("%s: quiescent re-extraction re-rendered the AFT", name)
		}
	}
}

// A fault must move exactly the affected routers' stamps, and their next
// extraction must be a fresh table while clean routers keep serving the
// cached pointer.
func TestAFTsDirtyOnlyAfterFault(t *testing.T) {
	e, err := New(Config{Topology: testnet.Fig2(), Sim: sim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	converge(t, e)

	afts1 := e.AFTs()
	stamps1 := e.FIBGenerations()
	if err := e.ResetBGP("r2"); err != nil {
		t.Fatal(err)
	}
	stamps2 := e.FIBGenerations()
	afts2 := e.AFTs()
	dirty := 0
	for name, s := range stamps2 {
		if s != stamps1[name] {
			dirty++
			if afts2[name] == afts1[name] {
				t.Errorf("%s: stamp moved but extraction returned the stale table", name)
			}
		} else if afts2[name] != afts1[name] {
			t.Errorf("%s: clean router re-rendered", name)
		}
	}
	if dirty == 0 {
		t.Fatal("BGP reset dirtied no router")
	}
	if dirty == len(stamps2) {
		t.Error("BGP reset dirtied every router — generation tracking too coarse")
	}
}

// Crash/recover is the incarnation hazard: the crashed router's snapshot
// entry must go empty immediately (no stale pre-crash AFT), and the rebuilt
// router must come back under a bumped epoch so delta verification sees it
// as dirty even though its fresh generation counter may coincide with the
// old one.
func TestCrashRecoverEpochAndStaleAFT(t *testing.T) {
	e, err := New(Config{Topology: testnet.Fig2(), Sim: sim.New(1)})
	if err != nil {
		t.Fatal(err)
	}
	converge(t, e)

	before := e.FIBGenerations()
	if len(e.AFTs()["r3"].IPv4Entries) == 0 {
		t.Fatal("r3 empty before crash")
	}
	if err := e.CrashRouter("r3"); err != nil {
		t.Fatal(err)
	}
	// The dead router's forwarding plane is gone: the very next snapshot
	// must not leak the cached pre-crash table.
	if got := e.AFTs()["r3"]; len(got.IPv4Entries) != 0 {
		t.Fatalf("crashed r3 still exports %d stale entries", len(got.IPv4Entries))
	}

	clk := e.Sim()
	deadline := clk.Now() + time.Hour
	for clk.Now() < deadline {
		if p, ok := e.Cluster().Pod("r3"); ok && p.Phase == kube.PodRunning {
			break
		}
		clk.RunFor(time.Second)
	}
	e.Settle(30*time.Second, time.Hour)

	after := e.FIBGenerations()
	if after["r3"].Epoch <= before["r3"].Epoch {
		t.Errorf("rebuilt r3 epoch %d not past pre-crash epoch %d",
			after["r3"].Epoch, before["r3"].Epoch)
	}
	if len(e.AFTs()["r3"].IPv4Entries) == 0 {
		t.Error("rebuilt r3 exports an empty AFT after reconvergence")
	}
}

// BenchmarkExportAFT measures the render path alone — FIB resolution and
// AFT building for one converged WAN(30) router, bypassing the generation
// cache — with its allocations, the per-candidate cost every dirty router
// pays in a failure sweep.
func BenchmarkExportAFT(b *testing.B) {
	topo := testnet.WAN(30, true)
	e, err := New(Config{Topology: topo, Sim: sim.New(42)})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	if _, err := e.RunUntilConverged(30*time.Second, time.Hour); err != nil {
		b.Fatal(err)
	}
	r, ok := e.Router(topo.Nodes[0].Name)
	if !ok {
		b.Fatal("router missing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exported = r.RenderAFT()
	}
	b.ReportMetric(float64(len(exported.IPv4Entries)), "entries")
}

// exported keeps BenchmarkExportAFT's result live.
var exported *aft.AFT
