package main

import (
	"time"

	"mfv"
	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/sim"
	"mfv/internal/verify"
)

// The defaults mfv.Run applies to a zero Options; the traced path must use
// the same ones to converge to the same dataplane.
const (
	defaultSeed    = 42
	defaultHold    = 30 * time.Second
	defaultTimeout = 2 * time.Hour
)

// layerSequence performs the emulation backend of mfv.Run one public call at
// a time, each inside a span: kne.New, AddInjector and Announce per feed,
// Start, SetLinkDown per downed link, RunUntilConverged, AFTs and
// verify.NewNetwork. o is attached as the emulator's observer.
func layerSequence(snap mfv.Snapshot, tr *tracer, o *mfv.Observer) (res *mfv.Result, err error) {
	end := tr.begin(spanNew)
	em, err := kne.New(kne.Config{Topology: snap.Topology, Sim: sim.New(defaultSeed), Obs: o})
	end()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			em.Stop()
		}
	}()
	for _, f := range snap.Feeds {
		end := tr.begin("kne.Emulator.AddInjector")
		inj, err := em.AddInjector(f.Router, f.PeerAddr, f.PeerAS)
		end()
		if err != nil {
			return nil, err
		}
		end = tr.begin("kne.Injector.Announce")
		for _, feed := range f.Feeds {
			inj.Announce(feed.Prefixes, feed.Attrs)
		}
		end()
	}
	end = tr.begin("kne.Emulator.Start")
	err = em.Start()
	end()
	if err != nil {
		return nil, err
	}
	for _, ep := range snap.DownLinks {
		end := tr.begin("kne.Emulator.SetLinkDown")
		err := em.SetLinkDown(ep)
		end()
		if err != nil {
			return nil, err
		}
	}
	end = tr.begin(spanConverge)
	convergedAt, err := em.RunUntilConverged(defaultHold, defaultTimeout)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.begin(spanRender)
	afts := em.AFTs()
	end()
	end = tr.begin(spanBuild)
	network, err := verify.NewNetwork(snap.Topology, afts)
	end()
	if err != nil {
		return nil, err
	}
	return &mfv.Result{
		Backend:     mfv.BackendEmulation,
		AFTs:        afts,
		Network:     network,
		StartupAt:   em.StartupDone(),
		ConvergedAt: convergedAt,
		Emulator:    em,
	}, nil
}

// recordEmulation adds one traced op's emulation counters: simulator events
// from the emulator's clock, protocol counters from the observer, and the
// size of the rendered dataplane and of its equivalence classes.
func recordEmulation(tr *tracer, res *mfv.Result, o *mfv.Observer) {
	s := res.Emulator.Sim()
	tr.add("sim.executed", float64(s.Executed()))
	tr.add("sim.canceled", float64(s.CanceledCount()))
	tr.add("sim.scheduled", float64(s.Executed()+s.CanceledCount()))
	recordProtocols(tr, o)
	entries := 0
	for _, a := range res.AFTs {
		entries += len(a.IPv4Entries)
	}
	tr.add("aft.entries", float64(entries))
	tr.add("verify.ecs", float64(len(res.Network.EquivalenceClasses())))
}

// recordProtocols adds the IS-IS, BGP and verify counters an observer kept.
func recordProtocols(tr *tracer, o *mfv.Observer) {
	m := o.Metrics()
	tr.add("isis.spf_runs", float64(m.Counter("spf_runs_total").Value()))
	tr.add("isis.spf_ms", float64(m.Histogram("spf_ns").Sum())/1e6)
	tr.add("bgp.updates", float64(m.Counter("bgp_updates_total").Value()))
	tr.add("bgp.prefixes_in", float64(m.Counter("bgp_prefixes_in_total").Value()))
	hits := m.Counter("verify_memo_hits_total").Value()
	tr.add("verify.memo_hits", float64(hits))
	tr.add("verify.memo_lookups", float64(hits+m.Counter("verify_memo_misses_total").Value()))
}

// counterSum totals every labelled series of a counter.
func counterSum(o *mfv.Observer, name string) float64 {
	var n float64
	for _, s := range o.Metrics().Snapshot() {
		if s.Name == name && s.Kind == obs.KindCounter {
			n += float64(s.Value)
		}
	}
	return n
}
