package verify

import (
	"cmp"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mfv/internal/topology"
)

// This file is the parallel batch-query engine. The exhaustive queries
// (AllPairs, Differential, DetectLoops, DetectBlackHoles) all reduce to the
// same shape — evaluate every (source, equivalence-class) flow over an
// immutable Network — so they share one worker pool that shards flows by
// destination class and one solver, solve, that computes each class's
// outcomes component by component, sharing path suffixes between sources.
//
// Determinism contract: results are merged by stable flow key, so output is
// byte-identical regardless of worker count. In a component of fewer than
// maxPathHops devices the memoized solver's outcomes are exact (it never
// truncates), whereas path enumeration via Trace caps at maxBranches and
// flags Trace.Truncated; the two agree whenever no trace is truncated, which
// the memoization quickcheck asserts on random networks. A component of
// maxPathHops or more devices takes the Trace walk itself, so its outcomes
// carry the same caps.

// Queries configures the batch engine. The zero value runs with
// runtime.GOMAXPROCS(0) workers.
type Queries struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
}

func (q Queries) workers() int {
	if q.Workers > 0 {
		return q.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// run evaluates fn(i) for i in [0, n) across the pool. Each index owns its
// result slot, so scheduling order never affects output.
func (q Queries) run(n int, fn func(int)) {
	w := q.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// dstOutcomes maps solved devices to their outcome for one destination
// class.
type dstOutcomes map[string]Outcome

// outcome returns src's outcome, falling back to the NoRoute self-outcome
// Trace produces for a device that was not solved: one without forwarding
// state, or in a component whose FIBs do not cover the class.
func (m dstOutcomes) outcome(src string) Outcome {
	if o, ok := m[src]; ok {
		return o
	}
	return Outcome{{Disp: NoRoute, Device: src}}
}

// outcomesFor returns (computing and memoizing on first use) the per-device
// outcomes for one destination class. The cache lives on the Network, so
// repeated queries against the same immutable snapshot — the chaos engine's
// per-fault differentials, a Differential after a DetectLoops — pay once.
func (n *Network) outcomesFor(dst netip.Addr) dstOutcomes {
	n.memoMu.Lock()
	if m, ok := n.memo[dst]; ok {
		n.memoMu.Unlock()
		n.cMemoHits.Inc()
		return m
	}
	n.memoMu.Unlock()

	m := n.solve(dst, nil)

	n.memoMu.Lock()
	if prior, ok := n.memo[dst]; ok {
		m = prior // a concurrent query computed it first; keep one copy
	} else {
		if n.memo == nil {
			n.memo = map[netip.Addr]dstOutcomes{}
		}
		n.memo[dst] = m
	}
	n.memoMu.Unlock()
	return m
}

// solve computes the outcomes toward dst of the devices in roots (nil means
// every device), one connected component at a time. Walks cannot cross a
// component, so this is exact, and a component whose FIBs cannot match dst
// is skipped: its members' outcomes are the NoRoute self-fallback of
// dstOutcomes.outcome, which keeps per-class memory proportional to the
// relevant region. Below maxPathHops devices a component runs the memoized
// solver; from maxPathHops on, a simple path can reach the walk's TTL cap,
// so each root takes the capped Trace walk instead and the two never
// disagree on where a long path ends.
func (n *Network) solve(dst netip.Addr, roots map[string]bool) dstOutcomes {
	out := dstOutcomes{}
	a := addrU32(dst)
	for _, c := range n.components() {
		if !c.covers(a) {
			continue
		}
		var s *solver
		if len(c.names) < maxPathHops {
			s = &solver{n: n, dst: dst, frag: map[string]Outcome{}, stack: map[string]bool{}}
		}
		for _, name := range c.names {
			if roots != nil && !roots[name] {
				continue
			}
			if s == nil {
				out[name] = n.Trace(name, dst).Outcome()
				n.cMemoMisses.Inc()
				continue
			}
			out[name], _ = s.visit(n.devices[name])
		}
		if s != nil {
			n.cMemoHits.Add(s.hits)
			n.cMemoMisses.Add(s.misses)
		}
	}
	return out
}

// solver computes outcomes for every device toward one destination with
// per-device memoization. A device's outcome is cached only when its
// exploration saw no back edge ("clean"): such a set is the closure of an
// acyclic region, so no future entry path can intersect it and the set is
// context-free. Loop fragments are labeled with the first revisited device,
// which depends on the entry point, so loopy regions are recomputed per
// source — exactly matching the sequential walk's semantics.
type solver struct {
	n            *Network
	dst          netip.Addr
	frag         map[string]Outcome // device -> cached clean outcome
	stack        map[string]bool    // devices on the current DFS path
	hits, misses uint64
}

// visit returns the outcome reachable from d and whether the exploration was
// clean (saw no back edge anywhere in the subtree).
func (s *solver) visit(d *device) (Outcome, bool) {
	if f, ok := s.frag[d.name]; ok {
		s.hits++
		return f, true
	}
	if s.stack[d.name] {
		return Outcome{{Disp: Loop, Device: d.name}}, false
	}
	s.misses++
	_, entry, ok := d.fib.Lookup(s.dst)
	if !ok {
		f := Outcome{{Disp: NoRoute, Device: d.name}}
		s.frag[d.name] = f
		return f, true
	}
	s.stack[d.name] = true
	clean := true
	var acc Outcome
	for _, h := range entry.hops {
		switch {
		case h.Receive:
			acc = append(acc, Fragment{Disp: Delivered, Device: d.name})
		case h.Drop:
			acc = append(acc, Fragment{Disp: Dropped, Device: d.name})
		default:
			peer, wired := s.n.peerOf[topology.Endpoint{Node: d.name, Interface: h.Interface}]
			next, ok := s.n.devices[peer.Node]
			if !wired || !ok {
				acc = append(acc, Fragment{Disp: ExitsNetwork, Device: d.name})
				continue
			}
			sub, subClean := s.visit(next)
			acc = append(acc, sub...)
			clean = clean && subClean
		}
	}
	delete(s.stack, d.name)
	acc = canonical(acc)
	if clean {
		s.frag[d.name] = acc
	}
	return acc, clean
}

// unionAddrs merges sorted address slices into one sorted, deduplicated
// slice.
func unionAddrs(a, b []netip.Addr) []netip.Addr {
	out := append(append([]netip.Addr{}, a...), b...)
	slices.SortFunc(out, netip.Addr.Compare)
	return slices.Compact(out)
}

func unionStrings(a, b []string) []string {
	out := append(append([]string{}, a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

// Differential runs the differential-reachability query over the pool: each
// destination class compares every solved source's memoized outcomes.
func (q Queries) Differential(before, after *Network) []Diff {
	sources := len(unionStrings(before.Devices(), after.Devices()))
	return q.differential(before, after, func(rep netip.Addr) []Diff {
		before.gInflight.Add(int64(sources))
		defer before.gInflight.Add(-int64(sources))
		defer before.cFlows.Add(uint64(sources))
		return diffOutcomes(rep, before.outcomesFor(rep), after.outcomesFor(rep))
	})
}

// differential is the driver Differential and DeltaDifferential share: flows
// are sharded by destination class, each class yields its diffs through
// perClass, and the merged result is sorted by (source, class), the exact
// order the sequential implementation produced.
func (q Queries) differential(before, after *Network, perClass func(rep netip.Addr) []Diff) []Diff {
	defer before.observeWall("differential", time.Now())
	before.cQueries.Inc()
	classes := unionAddrs(before.EquivalenceClasses(), after.EquivalenceClasses())
	results := make([][]Diff, len(classes))
	q.run(len(classes), func(i int) { results[i] = perClass(classes[i]) })
	var out []Diff
	for _, ds := range results {
		out = append(out, ds...)
	}
	slices.SortFunc(out, func(a, b Diff) int {
		return cmp.Or(strings.Compare(a.Src, b.Src), a.Dst.Compare(b.Dst))
	})
	return out
}

// diffOutcomes compares one class's outcomes in two snapshots. Sources
// absent from both maps share the NoRoute self-fallback on both sides and
// can never differ, so the scan covers only the solved devices — at 10k
// region-sharded routers that is the relevant region, not the whole fleet.
func diffOutcomes(rep netip.Addr, before, after dstOutcomes) []Diff {
	var ds []Diff
	for src, b := range before {
		if a := after.outcome(src); !slices.Equal(b, a) {
			ds = append(ds, Diff{Src: src, Dst: rep, Before: b, After: a})
		}
	}
	for src, a := range after {
		if _, ok := before[src]; !ok {
			if b := before.outcome(src); !slices.Equal(b, a) {
				ds = append(ds, Diff{Src: src, Dst: rep, Before: b, After: a})
			}
		}
	}
	return ds
}

// AllPairs computes the reachability matrix over the pool, sharded by
// destination address.
func (q Queries) AllPairs(n *Network) ReachMatrix {
	defer n.observeWall("allpairs", time.Now())
	n.cQueries.Inc()
	m := ReachMatrix{
		Sources: n.Devices(),
		Dsts:    n.OwnedAddrs(),
		Reach:   map[string]map[netip.Addr]bool{},
	}
	cols := make([][]bool, len(m.Dsts))
	q.run(len(m.Dsts), func(i int) {
		n.gInflight.Add(int64(len(m.Sources)))
		defer n.gInflight.Add(-int64(len(m.Sources)))
		oc := n.outcomesFor(m.Dsts[i])
		col := make([]bool, len(m.Sources))
		for j, src := range m.Sources {
			col[j] = oc[src].Has(Delivered)
		}
		cols[i] = col
		n.cFlows.Add(uint64(len(m.Sources)))
	})
	for j, src := range m.Sources {
		row := make(map[netip.Addr]bool, len(m.Dsts))
		for i, dst := range m.Dsts {
			row[dst] = cols[i][j]
		}
		m.Reach[src] = row
	}
	return m
}

// DetectLoops checks every (source, class) flow over the pool. Classes whose
// memoized outcome carries a Loop fragment are re-traced with the exact
// path walk, so the reported paths (and truncation behavior) match the
// sequential implementation branch for branch.
func (q Queries) DetectLoops(n *Network) []LoopReport {
	defer n.observeWall("loops", time.Now())
	n.cQueries.Inc()
	classes := n.EquivalenceClasses()
	sources := n.Devices()
	results := make([][]LoopReport, len(classes))
	q.run(len(classes), func(i int) {
		rep := classes[i]
		n.gInflight.Add(int64(len(sources)))
		defer n.gInflight.Add(-int64(len(sources)))
		oc := n.outcomesFor(rep)
		n.cFlows.Add(uint64(len(sources)))
		var reports []LoopReport
		for _, src := range sources {
			if !oc[src].Has(Loop) {
				continue
			}
			t := n.Trace(src, rep)
			for _, p := range t.Paths {
				if p.Disposition == Loop {
					reports = append(reports, LoopReport{Dst: rep, Src: src, Path: p})
					break
				}
			}
		}
		results[i] = reports
	})
	var out []LoopReport
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// DetectBlackHoles checks every (source, class) flow over the pool,
// re-tracing flagged flows so the reported disposition is the first one the
// sequential walk would have encountered.
func (q Queries) DetectBlackHoles(n *Network) []BlackHole {
	defer n.observeWall("blackholes", time.Now())
	n.cQueries.Inc()
	classes := n.EquivalenceClasses()
	sources := n.Devices()
	results := make([][]BlackHole, len(classes))
	q.run(len(classes), func(i int) {
		rep := classes[i]
		n.gInflight.Add(int64(len(sources)))
		defer n.gInflight.Add(-int64(len(sources)))
		oc := n.outcomesFor(rep)
		n.cFlows.Add(uint64(len(sources)))
		var holes []BlackHole
		for _, src := range sources {
			o, ok := oc[src]
			if !ok {
				// src's component has no FIB coverage for this class: the
				// sequential walk yields NoRoute@src without tracing.
				holes = append(holes, BlackHole{Dst: rep, Src: src, Disposition: NoRoute})
				continue
			}
			if !o.Has(Dropped) && !o.Has(NoRoute) {
				continue
			}
			t := n.Trace(src, rep)
			for _, p := range t.Paths {
				if p.Disposition == Dropped || p.Disposition == NoRoute {
					holes = append(holes, BlackHole{Dst: rep, Src: src, Disposition: p.Disposition})
					break
				}
			}
		}
		results[i] = holes
	})
	var out []BlackHole
	for _, h := range results {
		out = append(out, h...)
	}
	return out
}
