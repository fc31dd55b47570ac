package verify

import (
	"net/netip"

	"mfv/internal/topology"
)

// This file is the delta-driven differential: the fault-loop optimization
// that makes per-fault verification cost proportional to blast radius. The
// caller names the dirty devices — those whose forwarding state may differ
// between the two snapshots (the chaos engine derives the set from the
// emulator's FIB-generation stamps) — and the query then prunes work in two
// sound steps:
//
//  1. Class prune: for each equivalence class, look the representative up
//     in every dirty device's before/after tries. If every dirty device
//     forwards the class identically in both snapshots, then — since every
//     clean device is byte-identical by definition — the two forwarding
//     graphs for that class are equal and the class can contribute no diff.
//     This costs O(|dirty|) lookups per class instead of a full evaluation.
//
//  2. Source taint: for a class that did change, only sources whose
//     forwarding walk can reach a changed device can change outcome. The
//     tainted set is a reverse BFS from the changed devices over the union
//     of both snapshots' one-step forwarding edges; untainted sources walk
//     an identical subgraph in both snapshots and are skipped.
//
// The surviving (tainted source, changed class) flows are evaluated by the
// same solve the full query memoizes, restricted to the tainted sources, and
// merged by the same driver in the same (source, class) order, so the result
// is byte-identical to Queries.Differential whenever dirty covers every
// changed device. That includes components of maxPathHops devices or more,
// where solve takes the capped Trace walk: an untainted source's walk is the
// same in both snapshots, caps included.

// DeltaDifferential is the package-level convenience wrapper, sizing the
// worker pool like Differential does.
func DeltaDifferential(before, after *Network, dirty []string) []Diff {
	return pairQueries(before, after).DeltaDifferential(before, after, dirty)
}

// DeltaDifferential runs the differential-reachability query restricted to
// flows that can be affected by the dirty devices. dirty must include every
// device whose forwarding state differs between the snapshots (supersets
// are fine); under that precondition the output is byte-identical to
// Differential(before, after).
func (q Queries) DeltaDifferential(before, after *Network, dirty []string) []Diff {
	return q.differential(before, after, func(rep netip.Addr) []Diff {
		var changed []string
		for _, name := range dirty {
			if !classEntryEqual(before.devices[name], after.devices[name], rep) {
				changed = append(changed, name)
			}
		}
		if len(changed) == 0 {
			return nil
		}
		tainted := taintedSources(before, after, rep, changed)
		before.cFlows.Add(uint64(len(tainted)))
		before.gInflight.Add(int64(len(tainted)))
		defer before.gInflight.Add(-int64(len(tainted)))
		// Restricted results stay out of the per-class memo: they cover a
		// subset of devices, and a later full query must not mistake them
		// for complete class outcomes.
		return diffOutcomes(rep, before.solve(rep, tainted), after.solve(rep, tainted))
	})
}

// classEntryEqual reports whether a device forwards the class identically
// in both snapshots. Only behavior-relevant hop fields are compared — the
// fields the walk and the solver consume — so a cosmetic difference (e.g.
// metric) cannot force a recompute, while any behavioral difference marks
// the device changed.
func classEntryEqual(b, a *device, rep netip.Addr) bool {
	if b == nil || a == nil {
		return b == a
	}
	_, be, bok := b.fib.Lookup(rep)
	_, ae, aok := a.fib.Lookup(rep)
	if bok != aok {
		return false
	}
	if !bok {
		return true
	}
	if len(be.hops) != len(ae.hops) {
		return false
	}
	for i := range be.hops {
		x, y := be.hops[i], ae.hops[i]
		if x.Receive != y.Receive || x.Drop != y.Drop || x.Interface != y.Interface {
			return false
		}
	}
	return true
}

// taintedSources runs a reverse BFS from the changed devices over the union
// of both snapshots' one-step forwarding edges for this class. A source
// outside the result walks an identical, unchanged subgraph in both
// snapshots, so its outcome provably cannot differ.
func taintedSources(before, after *Network, rep netip.Addr, changed []string) map[string]bool {
	rev := map[string][]string{}
	for _, n := range []*Network{before, after} {
		for name, d := range n.devices {
			_, entry, ok := d.fib.Lookup(rep)
			if !ok {
				continue
			}
			for _, h := range entry.hops {
				if h.Receive || h.Drop {
					continue
				}
				peer, wired := n.peerOf[topology.Endpoint{Node: name, Interface: h.Interface}]
				if !wired {
					continue
				}
				if _, ok := n.devices[peer.Node]; !ok {
					continue
				}
				rev[peer.Node] = append(rev[peer.Node], name)
			}
		}
	}
	tainted := make(map[string]bool, len(changed))
	queue := append([]string{}, changed...)
	for _, name := range changed {
		tainted[name] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, up := range rev[cur] {
			if !tainted[up] {
				tainted[up] = true
				queue = append(queue, up)
			}
		}
	}
	return tainted
}
