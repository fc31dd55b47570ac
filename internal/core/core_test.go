package core

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/chaos"
	"mfv/internal/config/eos"
	"mfv/internal/diag"
	"mfv/internal/routegen"
	"mfv/internal/testnet"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func runEmu(t *testing.T, snap Snapshot) *Result {
	t.Helper()
	res, err := Run(snap, Options{Backend: BackendEmulation})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestE1Fig2FullMesh: the healthy Fig. 2 network must have full loopback
// reachability across all three ASes.
func TestE1Fig2FullMesh(t *testing.T) {
	res := runEmu(t, Snapshot{Topology: testnet.Fig2()})
	for i := 1; i <= 6; i++ {
		src := fmt.Sprintf("r%d", i)
		for j := 1; j <= 6; j++ {
			dst := testnet.Fig2Loopback(fmt.Sprintf("r%d", j))
			if !res.Network.Reachable(src, dst) {
				t.Errorf("%s cannot reach %v", src, dst)
			}
		}
	}
	if res.StartupAt < 12*time.Minute || res.StartupAt > 17*time.Minute {
		t.Errorf("startup = %v, want paper's 12–17 min window", res.StartupAt)
	}
}

// TestE1DifferentialFindsASLoss reproduces the paper's E1: removing the
// r2–r3 eBGP session and running differential reachability must surface the
// loss of connectivity from AS3 routers to AS2 routers.
func TestE1DifferentialFindsASLoss(t *testing.T) {
	good := runEmu(t, Snapshot{Topology: testnet.Fig2()})
	bad := runEmu(t, Snapshot{Topology: testnet.Fig2Buggy()})
	diffs := Differential(good, bad)
	if len(diffs) == 0 {
		t.Fatal("differential reachability found nothing")
	}
	// AS3 (r3, r4) must lose the AS2 loopbacks (2.2.2.1, 2.2.2.2).
	lost := map[string]bool{}
	for _, d := range diffs {
		if d.Lost() {
			for j := 1; j <= 6; j++ {
				lo := testnet.Fig2Loopback(fmt.Sprintf("r%d", j))
				if d.Dst == lo {
					lost[d.Src+"->"+fmt.Sprintf("r%d", j)] = true
				}
			}
		}
	}
	for _, want := range []string{"r3->r1", "r3->r2", "r4->r1", "r4->r2"} {
		if !lost[want] {
			t.Errorf("expected lost flow %s not reported; lost = %v", want, lost)
		}
	}
	// AS3 internal connectivity must NOT be reported lost.
	if lost["r3->r4"] || lost["r4->r3"] {
		t.Error("intra-AS3 connectivity wrongly reported lost")
	}
}

// TestE2CoverageGap reproduces the paper's parsing statistics: each Fig. 2
// config is 62–82 lines, the vendor front end accepts all of them, and the
// reference model fails to recognize 38–42.
func TestE2CoverageGap(t *testing.T) {
	topo := testnet.Fig2()
	modelRes, err := Run(Snapshot{Topology: topo}, Options{Backend: BackendModel})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range topo.Nodes {
		total := eos.CountConfigLines(node.Config)
		if total < 62 || total > 82 {
			t.Errorf("%s: config is %d lines, want 62–82", node.Name, total)
		}
		// Vendor parser accepts everything.
		if _, diags, err := eos.Parse(node.Config); err != nil || len(diags.Unknown) != 0 {
			t.Errorf("%s: vendor parser rejected lines: %v %v", node.Name, err, diags)
		}
		cov := modelRes.Coverage[node.Name]
		if cov.TotalLines != total {
			t.Errorf("%s: model counted %d lines, vendor %d", node.Name, cov.TotalLines, total)
		}
		un := cov.UnrecognizedCount()
		if un < 38 || un > 42 {
			for _, w := range cov.Unrecognized {
				t.Logf("%s unrecognized: %q (%s)", node.Name, w.Text, w.Why)
			}
			t.Errorf("%s: model failed %d of %d lines, want 38–42", node.Name, un, total)
		}
	}
}

// TestE3ModelGap reproduces the Fig. 3 experiment: identical configurations
// produce full pairwise reachability under emulation but a broken dataplane
// under the model, and differential reachability across backends surfaces
// the divergence.
func TestE3ModelGap(t *testing.T) {
	topo := testnet.Fig3()
	emu := runEmu(t, Snapshot{Topology: topo})
	mdl, err := Run(Snapshot{Topology: topo}, Options{Backend: BackendModel})
	if err != nil {
		t.Fatal(err)
	}
	// Emulation: full pairwise loopback reachability.
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 3; j++ {
			src := fmt.Sprintf("r%d", i)
			dst := addr(fmt.Sprintf("2.2.2.%d", j))
			if !emu.Network.Reachable(src, dst) {
				t.Errorf("emulation: %s cannot reach %v", src, dst)
			}
		}
	}
	// Model: r2 must NOT reach r1's loopback (the paper's reported hole).
	if mdl.Network.Reachable("r2", addr("2.2.2.1")) {
		t.Error("model backend unexpectedly has r2 -> r1 reachability")
	}
	// Cross-backend differential must be non-empty and include that flow.
	diffs := Differential(mdl, emu)
	if len(diffs) == 0 {
		t.Fatal("cross-backend differential found no divergence")
	}
	found := false
	for _, d := range diffs {
		if d.Src == "r2" && d.Dst == addr("2.2.2.1") {
			found = true
			if d.Before.Has(verify.Delivered) || !d.After.Has(verify.Delivered) {
				t.Errorf("diff direction wrong: %v", d)
			}
		}
	}
	if !found {
		t.Errorf("r2 -> 2.2.2.1 divergence not reported; diffs: %v", diffs)
	}
	// The model's coverage must show the Fig. 3 issues on every router.
	for name, cov := range mdl.Coverage {
		if cov.UnrecognizedCount() == 0 {
			t.Errorf("%s: no unrecognized lines (isis enable should be rejected)", name)
		}
	}
}

func TestGNMIExtractionMatchesInProcess(t *testing.T) {
	topo := testnet.Fig3()
	direct := runEmu(t, Snapshot{Topology: topo})
	viaGNMI, err := Run(Snapshot{Topology: topo}, Options{Backend: BackendEmulation, UseGNMI: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range direct.AFTs {
		b, ok := viaGNMI.AFTs[name]
		if !ok {
			t.Fatalf("gNMI extraction missing %s", name)
		}
		if !a.Equal(b) {
			t.Errorf("%s: gNMI-extracted AFT differs from in-process", name)
		}
	}
	if diffs := Differential(direct, viaGNMI); len(diffs) != 0 {
		t.Errorf("extraction paths disagree: %v", diffs)
	}
}

func TestInjectedFeedsThroughPipeline(t *testing.T) {
	topo := testnet.WAN(6, false)
	gen := routegen.New(7)
	feeds := gen.FullTable(64700, 2000)
	res := runEmu(t, Snapshot{
		Topology: topo,
		Feeds: []InjectedFeed{{
			Router: topo.Nodes[0].Name, PeerAddr: addr("198.51.100.1"), PeerAS: 64700, Feeds: feeds,
		}},
	})
	counts := res.RouteCount()
	if counts["ebgp"] < 2000 {
		t.Errorf("route counts = %v, want ≥2000 eBGP routes on the edge", counts)
	}
	// The injected routes must appear in the edge router's AFT and be
	// classified ExitsNetwork when traced (they exit via the injector).
	somePrefix := feeds[0].Prefixes[0]
	tr := res.Network.Trace(topo.Nodes[0].Name, somePrefix.Addr())
	if len(tr.Paths) == 0 || tr.Paths[0].Disposition != verify.ExitsNetwork {
		t.Errorf("trace of injected prefix = %+v", tr.Paths)
	}
}

func TestDownLinksContext(t *testing.T) {
	topo := testnet.Fig3()
	baseline := runEmu(t, Snapshot{Topology: topo})
	cut := runEmu(t, Snapshot{
		Topology:  testnet.Fig3(),
		DownLinks: []topology.Endpoint{{Node: "r2", Interface: "Ethernet2"}},
	})
	if !baseline.Network.Reachable("r1", addr("2.2.2.3")) {
		t.Fatal("baseline broken")
	}
	if cut.Network.Reachable("r1", addr("2.2.2.3")) {
		t.Error("link-down context ignored")
	}
	diffs := Differential(baseline, cut)
	if len(diffs) == 0 {
		t.Error("differential across link-cut contexts empty")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Snapshot{}, Options{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Run(Snapshot{Topology: testnet.Fig3()}, Options{Backend: Backend(9)}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := Run(Snapshot{
		Topology: testnet.Fig3(),
		Feeds:    []InjectedFeed{{Router: "r1"}},
	}, Options{Backend: BackendModel}); err == nil {
		t.Error("model backend accepted feeds")
	}
}

func TestBackendString(t *testing.T) {
	if BackendEmulation.String() != "emulation" || BackendModel.String() != "model" {
		t.Error("Backend.String wrong")
	}
}

// TestChaosThroughPipeline runs a builtin scenario end to end through
// core.Run: the report must land on the Result and the scenario seed must
// override the default emulation seed.
func TestChaosThroughPipeline(t *testing.T) {
	sc, ok := chaos.Builtin("session-reset")
	if !ok {
		t.Fatal("no session-reset builtin")
	}
	res, err := Run(Snapshot{Topology: testnet.Fig2()}, Options{
		Backend: BackendEmulation,
		Chaos:   sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chaos == nil {
		t.Fatal("no chaos report on result")
	}
	if res.Chaos.Seed != sc.Seed {
		t.Errorf("report seed = %d, want scenario seed %d", res.Chaos.Seed, sc.Seed)
	}
	if len(res.Chaos.Verdicts) != len(sc.Faults) {
		t.Errorf("verdicts = %d, faults = %d", len(res.Chaos.Verdicts), len(sc.Faults))
	}
	if !res.Chaos.Recovered {
		t.Errorf("session reset not recovered: %s", res.Chaos)
	}
	// The post-chaos network is what gets verified: still fully meshed.
	if !res.Network.Reachable("r1", testnet.Fig2Loopback("r4")) {
		t.Error("post-chaos network lost reachability")
	}
}

// TestQuarantineThroughPipeline runs the corrupt-config builtin end to end:
// the quarantined router must land on both the chaos verdict and the
// Result, and the run must complete with the rest of the network verified
// around the contained device's empty table.
func TestQuarantineThroughPipeline(t *testing.T) {
	sc, ok := chaos.Builtin("corrupt-config")
	if !ok {
		t.Fatal("no corrupt-config builtin")
	}
	res, err := Run(Snapshot{Topology: testnet.Fig2()}, Options{
		Backend: BackendEmulation,
		Chaos:   sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QuarantinedRouters) != 1 || res.QuarantinedRouters[0] != "r4" {
		t.Fatalf("QuarantinedRouters = %v, want [r4]", res.QuarantinedRouters)
	}
	v := res.Chaos.Verdicts[0]
	if len(v.Quarantined) != 1 || v.Quarantined[0] != "r4" {
		t.Errorf("verdict quarantined = %v", v.Quarantined)
	}
	// The contained router contributes an empty table; everyone else still
	// forwards among themselves.
	if a := res.AFTs["r4"]; a == nil || len(a.IPv4Entries) != 0 {
		t.Errorf("quarantined r4 AFT not empty: %v", a)
	}
	if !res.Network.Reachable("r1", testnet.Fig2Loopback("r2")) {
		t.Error("healthy routers lost reachability after quarantine")
	}
	if res.Network.Reachable("r1", testnet.Fig2Loopback("r4")) {
		t.Error("quarantined router still reachable")
	}
}

// TestPullAFTsQuarantinesHostilePayload exercises the extraction containment
// boundary directly: a device whose AFT payload fails to decode (a
// *diag.Error) is quarantined and replaced by an empty table, while a
// transport error still aborts the extraction.
func TestPullAFTsQuarantinesHostilePayload(t *testing.T) {
	res := runEmu(t, Snapshot{Topology: testnet.Fig3()})
	em := res.Emulator

	hostile := func(name string) (*aft.AFT, error) {
		if name == "r2" {
			return nil, diag.Wrap(fmt.Errorf("invalid character 'x'"), diag.SevFatal, "gnmi", name)
		}
		return &aft.AFT{Device: name}, nil
	}
	afts, err := pullAFTs(em, hostile)
	if err != nil {
		t.Fatalf("hostile payload aborted extraction: %v", err)
	}
	if got := em.QuarantinedRouters(); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("QuarantinedRouters = %v, want [r2]", got)
	}
	if a := afts["r2"]; a == nil || len(a.IPv4Entries) != 0 {
		t.Errorf("hostile device's AFT not replaced by empty table: %v", afts["r2"])
	}
	if reason, ok := em.QuarantineReason("r2"); !ok || !strings.Contains(reason, "gnmi") {
		t.Errorf("quarantine reason = %q, %v", reason, ok)
	}

	transport := func(name string) (*aft.AFT, error) {
		return nil, fmt.Errorf("gnmi: recv: connection reset")
	}
	if _, err := pullAFTs(em, transport); err == nil {
		t.Error("transport error did not abort extraction")
	}
}

func TestChaosRejectedByModelBackend(t *testing.T) {
	sc, _ := chaos.Builtin("session-reset")
	if _, err := Run(Snapshot{Topology: testnet.Fig2()}, Options{
		Backend: BackendModel,
		Chaos:   sc,
	}); err == nil {
		t.Error("model backend accepted a chaos scenario")
	}
}

// TestDegradedRun forces a timeout shorter than Fig2's convergence: strict
// mode fails, degraded mode returns partial AFTs with stragglers named.
func TestDegradedRun(t *testing.T) {
	snap := Snapshot{Topology: testnet.Fig2()}
	short := Options{Backend: BackendEmulation, ConvergenceHold: 30 * time.Second, Timeout: 100 * time.Second}
	if _, err := Run(snap, short); err == nil {
		t.Fatal("strict run converged within 100s — timeout no longer forces degradation")
	}
	short.Degraded = true
	res, err := Run(snap, short)
	if err != nil {
		t.Fatalf("degraded run failed: %v", err)
	}
	if len(res.DegradedRouters) == 0 {
		t.Error("degraded run named no stragglers")
	}
	if len(res.AFTs) != 6 {
		t.Errorf("partial extraction returned %d AFTs", len(res.AFTs))
	}
}
