package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"mfv"
	"mfv/internal/verify"
)

// whatIf is one failure context: the links it takes down.
type whatIf struct {
	desc string
	down []mfv.Endpoint
	idx  map[int]bool // indices into Topology.Links
}

// whatIfInputs is how many what-ifs a seed generates; ops cycle through them.
const whatIfInputs = 4096

// genWhatIfs draws what-ifs from seed. Every fourth is the isolation of a
// whole router (all its links down) and the rest are single-link cuts, so
// the mix is the same at every seed and only the targets vary.
func genWhatIfs(topo *mfv.Topology, seed int64, n int) []whatIf {
	rng := rand.New(rand.NewSource(seed))
	out := make([]whatIf, n)
	for i := range out {
		w := whatIf{idx: map[int]bool{}}
		if i%4 == 3 {
			node := topo.Nodes[rng.Intn(len(topo.Nodes))].Name
			w.desc = "isolate " + node
			for li, l := range topo.Links {
				if l.A.Node == node || l.Z.Node == node {
					w.down = append(w.down, l.A)
					w.idx[li] = true
				}
			}
		} else {
			li := rng.Intn(len(topo.Links))
			w.desc = "cut " + topo.Links[li].A.String()
			w.down = []mfv.Endpoint{topo.Links[li].A}
			w.idx[li] = true
		}
		out[i] = w
	}
	return out
}

// newWhatIf is the wan30-whatif workload: each op converges one what-if of
// WAN(30) cold and differences it against the baseline converged in set-up.
func newWhatIf(seed int64, _ string) (*workload, error) {
	var (
		topo   *mfv.Topology
		base   *mfv.Result
		lo     map[string]netip.Addr
		inputs []whatIf
	)
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
		if base, err = mfv.Run(mfv.Snapshot{Topology: topo}, mfv.Options{}); err != nil {
			return err
		}
		if lo, err = loopbacks(topo); err != nil {
			return err
		}
		inputs = genWhatIfs(topo, seed, whatIfInputs)
		return nil
	}
	w.op = func(i int, tr *tracer) (*opResult, error) {
		in := inputs[i%len(inputs)]
		snap := mfv.Snapshot{Topology: topo, DownLinks: in.down}
		var (
			res *mfv.Result
			err error
			o   *mfv.Observer
		)
		t0 := time.Now()
		if tr == nil {
			if res, err = mfv.Run(snap, mfv.Options{}); err != nil {
				return nil, fmt.Errorf("%s: %w", in.desc, err)
			}
			mfv.DifferentialReachability(base, res)
		} else {
			o = mfv.NewMetricsObserver()
			if res, err = layerSequence(snap, tr, o); err != nil {
				return nil, fmt.Errorf("%s: %w", in.desc, err)
			}
			res.Network.SetObserver(o)
			end := tr.begin(spanDiff)
			verify.Differential(base.Network, res.Network)
			end()
		}
		return &opResult{
			stages: []stage{{name: "whatif_ms", unit: "ms", value: ms(time.Since(t0)), tail: true}},
			hash:   func() string { return mfv.DataplaneHash(res.AFTs) },
			check: func() error {
				if tr != nil {
					recordEmulation(tr, res, o)
				}
				if err := checkLoopbackFlows(topo, lo, in.idx, res.Network.Reachable); err != nil {
					return fmt.Errorf("%s: %w", in.desc, err)
				}
				return nil
			},
			release: res.Emulator.Stop,
		}, nil
	}
	return w, nil
}
