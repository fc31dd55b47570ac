package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mfv"
	"mfv/internal/core"
	"mfv/internal/kne"
	"mfv/internal/store"
)

// The replica factory settings mfv.RunSweep uses when it builds the pool
// itself.
const (
	sweepHold    = 2 * time.Minute
	sweepTimeout = 30 * time.Minute
)

// newSweep is the wan30-sweep-k1 workload: each op runs a journaled k=1
// sweep of every link, node and BGP failure over WAN(30), converged once in
// set-up with a seed-derived emulation seed.
func newSweep(seed int64, dir string) (*workload, error) {
	var (
		topo    *mfv.Topology
		base    *mfv.Result
		links   map[string]int
		bridged map[int]bool
	)
	// The seed picks the baseline's emulation seed, which shapes the
	// virtual-time history the sweep starts from but not its dataplane.
	emuSeed := 1 + rand.New(rand.NewSource(seed)).Int63n(1<<30)
	stopBase := func() {
		if base != nil {
			base.Emulator.Stop()
		}
	}
	w := &workload{setupReps: 50, close: stopBase}
	w.setup = func() error {
		stopBase()
		topo = mfv.WAN(30, true)
		var err error
		if base, err = mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{Seed: emuSeed}); err != nil {
			return err
		}
		links, bridged = linkIndex(topo), bridges(topo)
		return nil
	}
	// selfCheck runs one seed-chosen link cut through mfv.Run and through the
	// layer sequence the other workloads trace, and compares the dataplanes.
	w.selfCheck = func() error {
		l := topo.Links[rand.New(rand.NewSource(seed)).Intn(len(topo.Links))]
		snap := mfv.Snapshot{Topology: topo, DownLinks: []mfv.Endpoint{l.A}}
		want, err := mfv.Run(snap, mfv.Options{})
		if err != nil {
			return err
		}
		defer want.Emulator.Stop()
		got, err := layerSequence(snap, nil, mfv.NewMetricsObserver())
		if err != nil {
			return err
		}
		defer got.Emulator.Stop()
		if g, w := mfv.DataplaneHash(got.AFTs), mfv.DataplaneHash(want.AFTs); g != w {
			return fmt.Errorf("cut %s: layer sequence DataplaneHash %.12s, mfv.Run %.12s", l.A, g, w)
		}
		return nil
	}
	w.op = func(i int, tr *tracer) (*opResult, error) {
		journal := filepath.Join(dir, fmt.Sprintf("journal-%d", i))
		release := func() { os.RemoveAll(journal) }
		em := base.Emulator
		var o *mfv.Observer
		if tr != nil {
			o = mfv.NewMetricsObserver()
			setObserver(em, o)
		}
		var (
			build    time.Duration
			lanes    []*kne.Emulator
			laneBase []uint64 // executed, canceled per lane at the start of the loop
		)
		sim0 := em.Sim()
		laneBase = append(laneBase, sim0.Executed(), sim0.CanceledCount())
		lanes = append(lanes, em)

		t0 := time.Now()
		// The same factory mfv.RunSweep installs by default, timed through
		// the public hook.
		want := em.StateFingerprint()
		opts := mfv.SweepOptions{
			K:          1,
			Kinds:      []mfv.SweepKind{mfv.SweepLink, mfv.SweepNode, mfv.SweepBGP},
			Workers:    2,
			JournalDir: journal,
			Obs:        o,
			BuildReplicas: func(n int) ([]*kne.Emulator, error) {
				end := tr.begin(spanReplicas)
				b0 := time.Now()
				reps, err := core.BuildReplicas(em, n, want, sweepHold, sweepTimeout)
				build += time.Since(b0)
				end()
				if tr != nil {
					for _, r := range reps {
						setObserver(r, o)
						lanes = append(lanes, r)
						laneBase = append(laneBase, r.Sim().Executed(), r.Sim().CanceledCount())
					}
				}
				return reps, err
			},
		}
		end := tr.begin(spanSweep)
		rep, err := mfv.RunSweep(base, topo, opts)
		end()
		elapsed := time.Since(t0)
		if tr != nil {
			setObserver(em, nil)
		}
		if err != nil {
			release()
			return nil, err
		}
		loop := elapsed - build
		return &opResult{
			stages: []stage{
				{name: "sweep_s", unit: "s", value: elapsed.Seconds()},
				{name: "sweep_candidates_per_s", unit: "1/s", value: float64(rep.Applied) / loop.Seconds()},
			},
			check: func() error {
				if tr != nil {
					var executed, canceled uint64
					for li, l := range lanes {
						executed += l.Sim().Executed() - laneBase[2*li]
						canceled += l.Sim().CanceledCount() - laneBase[2*li+1]
					}
					tr.add("sim.executed", float64(executed))
					tr.add("sim.canceled", float64(canceled))
					tr.add("sim.scheduled", float64(executed+canceled))
					recordProtocols(tr, o)
					tr.add("sweep.applied", float64(rep.Applied))
					tr.add("sweep.verified", float64(rep.Verified))
					tr.add("sweep.lane_restarts", counterSum(o, "sweep_lane_restarts_total"))
					tr.add("sweep.retried", counterSum(o, "sweep_candidates_retried_total"))
					if fi, err := os.Stat(store.SweepJournalPath(journal)); err == nil {
						tr.add("store.journal_bytes", float64(fi.Size()))
					}
				}
				return checkSweep(rep, links, bridged)
			},
			release: release,
		}, nil
	}
	return w, nil
}

// setObserver attaches o (nil detaches) to every router of an emulator, so
// its IS-IS and BGP engines count into o.
func setObserver(em *kne.Emulator, o *mfv.Observer) {
	for _, r := range em.Routers() {
		r.SetObserver(o)
	}
}

// checkSweep judges a k=1 report against the topology: a link cut may lose
// flows only if the link is a bridge, every router failure must lose flows
// (at least those to the router itself), and no row may be poisoned.
func checkSweep(rep *mfv.SweepReport, links map[string]int, bridged map[int]bool) error {
	if rep.Interrupted {
		return fmt.Errorf("sweep interrupted")
	}
	if len(rep.Rows) != rep.Candidates || rep.Applied != rep.Candidates {
		return fmt.Errorf("sweep ranked %d rows and applied %d of %d candidates", len(rep.Rows), rep.Applied, rep.Candidates)
	}
	for _, row := range rep.Rows {
		if row.Poisoned != "" {
			return fmt.Errorf("row %q POISONED: %s", row.Failure, row.Poisoned)
		}
		kind, target, _ := strings.Cut(row.Failure, " ")
		switch kind {
		case "link":
			li, ok := links[target]
			if !ok {
				return fmt.Errorf("row %q names no link of the topology", row.Failure)
			}
			if row.FlowsLost > 0 && !bridged[li] {
				return fmt.Errorf("row %q lost %d flows but the link is not a bridge", row.Failure, row.FlowsLost)
			}
		case "node":
			if row.FlowsLost == 0 {
				return fmt.Errorf("row %q lost no flows", row.Failure)
			}
		}
	}
	return nil
}
