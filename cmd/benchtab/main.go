// Command benchtab regenerates every quantitative result in the paper's
// evaluation (§5) plus the survey statistics (§2), printing each experiment
// as a table with the paper's reported value alongside the measured one.
//
// Usage:
//
//	benchtab            # run all experiments
//	benchtab -e e1,e3   # run selected experiments
//	benchtab -quick     # reduce E5/E6 sizes for a fast pass
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"mfv"
	"mfv/internal/config/eos"
	"mfv/internal/kube"
	"mfv/internal/sim"
	"mfv/internal/survey"
)

func main() {
	var (
		exps  = flag.String("e", "e1,e2,e3,e4,e5,e6,e7", "comma-separated experiment ids")
		quick = flag.Bool("quick", false, "smaller sizes for E5/E6")
	)
	flag.Parse()
	want := map[string]bool{}
	for _, e := range strings.Split(*exps, ",") {
		want[strings.TrimSpace(e)] = true
	}
	runners := []struct {
		id string
		fn func(bool) error
	}{
		{"e1", e1}, {"e2", e2}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"e7", e7},
	}
	failed := false
	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		if err := r.fn(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

func header(id, title string) {
	fmt.Printf("── %s: %s %s\n", strings.ToUpper(id), title, strings.Repeat("─", 50-len(title)))
}

// phaseLine renders an observer's phase records as one compact summary line.
func phaseLine(o *mfv.Observer) string {
	var parts []string
	for _, p := range o.Phases() {
		parts = append(parts, fmt.Sprintf("%s=%v/%v", p.Name,
			p.VDur().Round(time.Second), p.Wall.Round(time.Millisecond)))
	}
	return strings.Join(parts, " ")
}

// e1: differential reachability uncovers the r2–r3 eBGP session loss.
func e1(bool) error {
	header("e1", "differential reachability (Fig. 2)")
	o := mfv.NewMetricsObserver()
	good, err := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2()}, mfv.Options{Obs: o})
	if err != nil {
		return err
	}
	bad, err := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2Buggy()}, mfv.Options{})
	if err != nil {
		return err
	}
	diffs := mfv.DifferentialReachability(good, bad)
	as3LostAS2 := 0
	for _, d := range diffs {
		if (d.Src == "r3" || d.Src == "r4") &&
			(d.Dst == netip.MustParseAddr("2.2.2.1") || d.Dst == netip.MustParseAddr("2.2.2.2")) &&
			d.Lost() {
			as3LostAS2++
		}
	}
	fmt.Printf("changed flows total:              %d\n", len(diffs))
	fmt.Printf("AS3->AS2 loopback flows lost:     %d   (paper: query surfaces AS3->AS2 loss; expect 4)\n", as3LostAS2)
	fmt.Printf("phases (virtual/wall):            %s\n", phaseLine(o))
	fmt.Printf("effort: sim events %d, BGP updates %d, SPF runs %d, ECs %d\n",
		o.Gauge("sim_events_total").Value(), o.Counter("bgp_updates_total").Value(),
		o.Counter("spf_runs_total").Value(), o.Gauge("ec_count").Value())
	ok := "REPRODUCED"
	if as3LostAS2 != 4 {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e2: model parsing coverage on the Fig. 2 configs.
func e2(bool) error {
	header("e2", "model feature coverage (Fig. 2 configs)")
	topo := mfv.Fig2()
	res, err := mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{Backend: mfv.BackendModel})
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %8s %14s   paper: 62-82 total, 38-42 unrecognized\n", "device", "lines", "unrecognized")
	inBand := true
	for _, n := range topo.Nodes {
		cov := res.Coverage[n.Name]
		total := eos.CountConfigLines(n.Config)
		un := cov.UnrecognizedCount()
		fmt.Printf("%-8s %8d %14d\n", n.Name, total, un)
		if total < 62 || total > 82 || un < 38 || un > 42 {
			inBand = false
		}
	}
	ok := "REPRODUCED"
	if !inBand {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e3: the Fig. 3 model-vs-emulation divergence.
func e3(bool) error {
	header("e3", "model gap on identical configs (Fig. 3)")
	topo := mfv.Fig3()
	emu, err := mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{})
	if err != nil {
		return err
	}
	mdl, err := mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{Backend: mfv.BackendModel})
	if err != nil {
		return err
	}
	full := true
	for i := 1; i <= 3 && full; i++ {
		for j := 1; j <= 3; j++ {
			if !emu.Network.Reachable(fmt.Sprintf("r%d", i), netip.MustParseAddr(fmt.Sprintf("2.2.2.%d", j))) {
				full = false
				break
			}
		}
	}
	modelHole := !mdl.Network.Reachable("r2", netip.MustParseAddr("2.2.2.1"))
	diffs := mfv.DifferentialReachability(mdl, emu)
	fmt.Printf("emulation full pairwise reach:    %v   (paper: true)\n", full)
	fmt.Printf("model r2->r1 reachability:        %v  (paper: false — packets dropped)\n",
		mdl.Network.Reachable("r2", netip.MustParseAddr("2.2.2.1")))
	fmt.Printf("cross-backend differing flows:    %d\n", len(diffs))
	ok := "REPRODUCED"
	if !full || !modelHole || len(diffs) == 0 {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e4: single-node packing.
func e4(bool) error {
	header("e4", "routers per e2-standard-32 node")
	s := sim.New(1)
	c := kube.NewCluster(s, kube.E2Standard32("n1"))
	placed := 0
	for {
		if _, err := c.Schedule(kube.AristaCEOSRequest(fmt.Sprintf("r%d", placed), time.Minute)); err != nil {
			break
		}
		placed++
	}
	fmt.Printf("0.5 vCPU + 1 GB per router:       %d routers   (paper: ~60, CPU-bound)\n", placed)
	ok := "REPRODUCED"
	if placed < 55 || placed > 64 {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e5: 1,000 devices on 17 nodes.
func e5(quick bool) error {
	header("e5", "cluster-scale placement and boot")
	pods, nodes := 1000, 17
	if quick {
		pods, nodes = 100, 2
	}
	s := sim.New(1)
	specs := make([]kube.NodeSpec, nodes)
	for i := range specs {
		specs[i] = kube.E2Standard32(fmt.Sprintf("n%d", i))
	}
	c := kube.NewCluster(s, specs...)
	for i := 0; i < pods; i++ {
		if _, err := c.Schedule(kube.AristaCEOSRequest(fmt.Sprintf("r%d", i), 90*time.Second)); err != nil {
			return fmt.Errorf("pod %d did not fit: %w", i, err)
		}
	}
	s.Run()
	fmt.Printf("placed %d pods on %d nodes, all Running: %v   (paper: 1,000 devices on 17 nodes)\n",
		pods, nodes, c.AllRunning())
	ok := "REPRODUCED"
	if !c.AllRunning() {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e6: 30-node WAN convergence with injected routes.
func e6(quick bool) error {
	header("e6", "30-node WAN convergence with route injection")
	nPrefixes := 200000
	if quick {
		nPrefixes = 20000
	}
	topo := mfv.WAN(30, true)
	feeds := mfv.NewFeedGenerator(7).FullTable(64700, nPrefixes)
	o := mfv.NewMetricsObserver()
	res, err := mfv.Run(mfv.Snapshot{
		Topology: topo,
		Feeds: []mfv.InjectedFeed{{
			Router: topo.Nodes[0].Name, PeerAddr: netip.MustParseAddr("198.51.100.1"),
			PeerAS: 64700, Feeds: feeds,
		}},
	}, mfv.Options{Obs: o})
	if err != nil {
		return err
	}
	conv := res.ConvergedAt - res.StartupAt
	fmt.Printf("injected prefixes:                %d   (paper: millions; scaled 10x with proc rate)\n", nPrefixes)
	fmt.Printf("one-time startup:                 %v   (paper: 12-17 min)\n", res.StartupAt.Round(time.Second))
	fmt.Printf("convergence incl. injection:      %v   (paper: ~3 min)\n", conv.Round(time.Second))
	fmt.Printf("phases (virtual/wall):            %s\n", phaseLine(o))
	fmt.Printf("effort: sim events %d (queue peak %d), BGP msgs in %d, prefixes in %d\n",
		o.Gauge("sim_events_total").Value(), o.Gauge("sim_queue_peak").Value(),
		o.Counter("bgp_msgs_in_total").Value(), o.Counter("bgp_prefixes_in_total").Value())
	ok := "REPRODUCED"
	if res.StartupAt < 12*time.Minute || res.StartupAt > 17*time.Minute {
		ok = "MISMATCH"
	}
	if !quick && (conv < 2*time.Minute || conv > 5*time.Minute) {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}

// e7: survey statistics.
func e7(bool) error {
	header("e7", "operator survey statistics (§2)")
	stats := survey.Aggregate(survey.Dataset())
	fmt.Print(stats.Table())
	ok := "REPRODUCED"
	if stats.N != 30 || stats.AttemptedPct != 30 ||
		stats.BarrierPct[survey.BarrierFeatureCoverage] < 73 ||
		stats.BarrierPct[survey.BarrierWorkflowIntegration] != 52 {
		ok = "MISMATCH"
	}
	fmt.Println("shape:", ok)
	return nil
}
