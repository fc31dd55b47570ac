// Package snapchain chains incremental dataplane snapshots off a running
// emulation. Each Snapshot call extracts the current AFTs and builds a
// verification network, reusing the previous snapshot's per-device tries and
// equivalence-class contributions for every router whose FIB generation
// stamp did not move (verify.Network.UpdateFrom). The chain is the shared
// substrate of the chaos engine's fault loop and the sweep engine's
// candidate loop: both apply a perturbation, settle, snapshot, and score the
// blast radius with a delta differential whose cost tracks the dirty set,
// not the network size.
package snapchain

import (
	"slices"
	"sort"

	"mfv/internal/aft"
	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// Snap is one dataplane snapshot: the reachability network, the extracted
// forwarding tables it was built from, the total forwarding-entry count, the
// per-router generation stamps dirty-set computations key on, and each
// router's AFT fingerprint.
type Snap struct {
	Net    *verify.Network
	AFTs   map[string]*aft.AFT
	Routes int
	Stamps map[string]kne.GenStamp
	// FPs maps each router to AFTs[router].Fingerprint(). A fingerprint is
	// computed once per FIB generation: an incremental snapshot carries it
	// over from the previous one for every router whose stamp did not move.
	FPs map[string]string
}

// Chain builds successive snapshots from an emulator. The zero Chain is not
// usable; construct with New.
type Chain struct {
	em      *kne.Emulator
	topo    *topology.Topology
	obs     *obs.Observer
	workers int

	// incremental (default on) chains snapshots through
	// verify.Network.UpdateFrom and scores differentials with the delta
	// query, so per-perturbation cost tracks blast radius instead of
	// network size. Results are byte-identical either way.
	incremental bool
	// last is the most recent snapshot, the base the next incremental
	// snapshot updates from.
	last *Snap
}

// New builds a chain over an emulator. The observer may be nil.
func New(em *kne.Emulator, topo *topology.Topology, o *obs.Observer) *Chain {
	return &Chain{em: em, topo: topo, obs: o, incremental: true}
}

// SetWorkers sizes the worker pool differential queries on chained networks
// run on (0 = GOMAXPROCS).
func (c *Chain) SetWorkers(w int) { c.workers = w }

// Fork returns a fresh chain over a replica emulator, inheriting this
// chain's worker-pool size and incremental mode but none of its snapshot
// history: FIB generation stamps are per-emulator counters, so snaps from
// different emulators must never be diffed through the same chain. The fork
// carries no observer — replica chains run concurrently, and the observer
// binds a single virtual clock.
func (c *Chain) Fork(em *kne.Emulator) *Chain {
	return &Chain{em: em, topo: c.topo, workers: c.workers, incremental: c.incremental}
}

// SetIncremental toggles the incremental snapshot + delta-differential path
// (on by default). Disabling forces a full network rebuild and a full
// differential per snapshot — the reference the equivalence tests run
// against.
func (c *Chain) SetIncremental(on bool) { c.incremental = on }

// Incremental reports whether the delta path is active.
func (c *Chain) Incremental() bool { return c.incremental }

// Last returns the most recent snapshot (nil before the first Snapshot).
func (c *Chain) Last() *Snap { return c.last }

// Snapshot extracts the current dataplane and appends it to the chain.
func (c *Chain) Snapshot() (Snap, error) {
	afts := c.em.AFTs()
	stamps := c.em.FIBGenerations()
	var n *verify.Network
	var err error
	var prev *Snap
	var dirty []string
	if c.incremental && c.last != nil {
		// Routers whose stamp moved since the previous snapshot are the
		// only ones whose AFT can differ; every other device's trie,
		// equivalence-interval cache and fingerprint carries over.
		prev = c.last
		dirty = DiffStamps(prev.Stamps, stamps)
		n, err = prev.Net.UpdateFrom(afts, dirty)
	} else {
		n, err = verify.NewNetwork(c.topo, afts)
	}
	if err != nil {
		return Snap{}, err
	}
	n.SetObserver(c.obs)
	n.SetWorkers(c.workers)
	total := 0
	fps := make(map[string]string, len(afts))
	for name, a := range afts {
		total += len(a.IPv4Entries)
		fp, ok := "", false
		if _, moved := slices.BinarySearch(dirty, name); prev != nil && !moved {
			fp, ok = prev.FPs[name]
		}
		if !ok {
			fp = a.Fingerprint()
		}
		fps[name] = fp
	}
	s := Snap{Net: n, AFTs: afts, Routes: total, Stamps: stamps, FPs: fps}
	c.last = &s
	return s, nil
}

// Differential compares two snapshots, delta-driven when incremental mode is
// on and the blast radius is small enough. Past half the network the
// per-class prune bookkeeping stops paying for itself, so wide perturbations
// fall back to the full recompute.
func (c *Chain) Differential(before, after Snap) []verify.Diff {
	if c.incremental {
		dirty := DiffStamps(before.Stamps, after.Stamps)
		if len(dirty)*2 <= len(before.Stamps) {
			return verify.DeltaDifferential(before.Net, after.Net, dirty)
		}
	}
	return verify.Differential(before.Net, after.Net)
}

// DiffStamps returns the routers whose generation stamp differs between two
// snapshots (or that exist in only one), sorted.
func DiffStamps(a, b map[string]kne.GenStamp) []string {
	var out []string
	for name, sa := range a {
		if sb, ok := b[name]; !ok || sb != sa {
			out = append(out, name)
		}
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// LostFlows keys the (source, class) flows that were delivered before a
// perturbation but not after it.
func LostFlows(diffs []verify.Diff) map[string]bool {
	out := map[string]bool{}
	for _, d := range diffs {
		if d.Lost() {
			out[d.Src+">"+d.Dst.String()] = true
		}
	}
	return out
}
