// Package verify is the dataplane verification engine — the component that
// plays Batfish's verification role in the pipeline. It consumes only the
// extracted AFTs plus the physical topology (to map egress interfaces to
// neighbors), partitions the IPv4 destination space into packet equivalence
// classes, and answers exhaustive queries: traceroute, reachability,
// all-pairs matrices, loop/black-hole detection, and the differential
// reachability query the paper's experiments are built on.
package verify

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mfv/internal/aft"
	"mfv/internal/intern"
	"mfv/internal/obs"
	"mfv/internal/routing"
	"mfv/internal/topology"
)

// Disposition classifies the fate of a packet.
type Disposition uint8

// Dispositions.
const (
	// Delivered: a device owned the destination and received it.
	Delivered Disposition = iota
	// ExitsNetwork: forwarded out an interface with no emulated neighbor
	// (toward an external peer).
	ExitsNetwork
	// Dropped: matched an explicit discard route.
	Dropped
	// NoRoute: no matching FIB entry (implicit drop).
	NoRoute
	// Loop: the packet revisited a device.
	Loop
)

// String renders the disposition.
func (d Disposition) String() string {
	switch d {
	case Delivered:
		return "Delivered"
	case ExitsNetwork:
		return "ExitsNetwork"
	case Dropped:
		return "Dropped"
	case NoRoute:
		return "NoRoute"
	case Loop:
		return "Loop"
	default:
		return fmt.Sprintf("Disposition(%d)", uint8(d))
	}
}

// Hop is one step of a forwarding path.
type Hop struct {
	Device string
	// Matched is the FIB prefix that matched (empty at a NoRoute hop).
	Matched string
	// Egress is the interface the packet left on (empty on terminal hops).
	Egress string
}

// Path is one branch of a (possibly ECMP-split) trace.
type Path struct {
	Hops        []Hop
	Disposition Disposition
	// Final is the device where the path ended.
	Final string
}

// String renders "r1[10.0.0.0/8→Ethernet1] r2[…] : Delivered@r2".
func (p Path) String() string {
	var b strings.Builder
	for i, h := range p.Hops {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s[%s→%s]", h.Device, h.Matched, h.Egress)
	}
	fmt.Fprintf(&b, " : %s@%s", p.Disposition, p.Final)
	return b.String()
}

// Trace is the full result for one (source, destination) query.
type Trace struct {
	Src   string
	Dst   netip.Addr
	Paths []Path
	// Truncated reports that the ECMP branch enumeration hit maxBranches
	// and further paths were discarded: the Paths list (and any Outcome
	// derived from it) may be incomplete. Capped explosions also count into
	// the verify_trace_truncated_total metric.
	Truncated bool
}

// Delivered reports whether any branch delivers.
func (t Trace) Delivered() bool {
	for _, p := range t.Paths {
		if p.Disposition == Delivered {
			return true
		}
	}
	return false
}

// Outcome canonicalizes a trace for differential comparison: the set of
// (disposition, final device) pairs across branches.
func (t Trace) Outcome() Outcome {
	o := make(Outcome, len(t.Paths))
	for i, p := range t.Paths {
		o[i] = Fragment{Disp: p.Disposition, Device: p.Final}
	}
	return canonical(o)
}

// Fragment is one (disposition, final device) pair of an outcome.
type Fragment struct {
	Disp   Disposition
	Device string
}

// Outcome is the canonical forwarding outcome of one (source, destination)
// flow: every branch's fragment, sorted by disposition name and then device,
// without duplicates. Two flows forward alike exactly when their outcomes
// are slices.Equal.
type Outcome []Fragment

// canonical sorts and deduplicates o in place. Ordering by disposition name
// (not by Disposition value) keeps String byte-identical to sorting the
// rendered "Disposition@device" fragments, since no disposition name is a
// prefix of another.
func canonical(o Outcome) Outcome {
	slices.SortFunc(o, func(a, b Fragment) int {
		return cmp.Or(strings.Compare(a.Disp.String(), b.Disp.String()), strings.Compare(a.Device, b.Device))
	})
	return slices.Compact(o)
}

// Has reports whether any branch ends with disposition d.
func (o Outcome) Has(d Disposition) bool {
	return slices.ContainsFunc(o, func(f Fragment) bool { return f.Disp == d })
}

// String renders "Delivered@r2,Dropped@r3", the form tables, -json reports
// and Diff.String show.
func (o Outcome) String() string {
	var b strings.Builder
	for i, f := range o {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(f.Disp.String())
		b.WriteByte('@')
		b.WriteString(f.Device)
	}
	return b.String()
}

// maxPathHops bounds forwarding walks (TTL analogue).
const maxPathHops = 64

// maxBranches bounds ECMP path explosion per trace.
const maxBranches = 64

// device is the verification view of one router. Devices are immutable
// once built, so an incremental snapshot (UpdateFrom) can share them with
// its predecessor.
type device struct {
	name string
	fib  *routing.Trie[*fibEntry]
	// bounds are the equivalence-class interval cuts this device's prefixes
	// contribute (each prefix's start and end-successor as u32), cached at
	// build time so computeClasses only re-derives intervals for rebuilt
	// devices.
	bounds []uint32
	// owned are this device's locally delivered /32 addresses, cached for
	// the same reason.
	owned []netip.Addr
}

type fibEntry struct {
	prefix string
	hops   []aft.NextHop
}

// Network is an immutable verification snapshot: topology + AFTs indexed
// for fast longest-prefix matching.
type Network struct {
	topo    *topology.Topology
	devices map[string]*device
	// peerOf maps endpoint -> endpoint for egress resolution.
	peerOf map[topology.Endpoint]topology.Endpoint
	// owners maps every Receive-delivering /32 prefix address to its device
	// (used for all-pairs matrices).
	owners map[netip.Addr]string
	// known is the topology's node-name set; topology.Topology.Node is a
	// linear scan, which turns per-AFT validation quadratic at 10k devices.
	known map[string]bool

	// workers is the default batch-query pool size (0 = GOMAXPROCS); the
	// convenience query methods wrap it in a Queries value.
	workers int

	// Equivalence classes are a pure function of the immutable FIBs, so
	// they are computed once per snapshot and cached.
	ecOnce sync.Once
	ecs    []netip.Addr

	// Connected components of the device graph, cached like the classes.
	// Per-destination outcome solving runs component-by-component (see
	// batch.go): forwarding walks can never cross a component boundary, so
	// a region-sharded 10k-router network solves 500 20-device pieces
	// instead of tripping the capped Trace fallback for large components.
	compOnce sync.Once
	comps    []*component

	// memo caches per-class outcome maps (see batch.go).
	memoMu sync.Mutex
	memo   map[netip.Addr]dstOutcomes

	// Observability handles (nil = no-op).
	cTraces     *obs.Counter
	cQueries    *obs.Counter
	cFlows      *obs.Counter
	cMemoHits   *obs.Counter
	cMemoMisses *obs.Counter
	cTruncated  *obs.Counter
	gECs        *obs.Gauge
	gInflight   *obs.Gauge
	wallHist    map[string]*obs.Histogram
}

// SetObserver enables verification metrics: verify_traces_total counts
// forwarding walks, ec_count records the equivalence-class population,
// verify_queries_total / verify_flows_total count batch queries and the
// (source, class) flows they evaluate, verify_inflight_flows gauges the
// flows currently being evaluated by the worker pool (live progress),
// verify_memo_{hits,misses}_total expose the memoization hit rate,
// verify_trace_truncated_total counts capped ECMP enumerations, and
// verify_wall_ns{query=...} histograms record per-query wall time.
func (n *Network) SetObserver(o *obs.Observer) {
	n.cTraces = o.Counter("verify_traces_total")
	n.cQueries = o.Counter("verify_queries_total")
	n.cFlows = o.Counter("verify_flows_total")
	n.cMemoHits = o.Counter("verify_memo_hits_total")
	n.cMemoMisses = o.Counter("verify_memo_misses_total")
	n.cTruncated = o.Counter("verify_trace_truncated_total")
	n.gECs = o.Gauge("ec_count")
	n.gInflight = o.Gauge("verify_inflight_flows")
	if o != nil {
		n.wallHist = map[string]*obs.Histogram{
			"differential": o.Histogram("verify_wall_ns", "query", "differential"),
			"allpairs":     o.Histogram("verify_wall_ns", "query", "allpairs"),
			"loops":        o.Histogram("verify_wall_ns", "query", "loops"),
			"blackholes":   o.Histogram("verify_wall_ns", "query", "blackholes"),
		}
	}
}

// SetWorkers fixes the worker-pool size used by this network's batch
// queries (AllPairs, DetectLoops, DetectBlackHoles, and Differential runs
// it participates in). Zero or negative selects GOMAXPROCS.
func (n *Network) SetWorkers(w int) {
	if w < 0 {
		w = 0
	}
	n.workers = w
}

// observeWall records one batch query's wall time (no-op when unobserved).
func (n *Network) observeWall(kind string, start time.Time) {
	if h := n.wallHist[kind]; h != nil {
		h.Observe(time.Since(start).Nanoseconds())
	}
}

// NewNetwork indexes AFTs for verification. Unknown devices in afts (not in
// the topology) are rejected.
func NewNetwork(topo *topology.Topology, afts map[string]*aft.AFT) (*Network, error) {
	n := &Network{
		topo:    topo,
		devices: map[string]*device{},
		peerOf:  map[topology.Endpoint]topology.Endpoint{},
		owners:  map[netip.Addr]string{},
	}
	for _, l := range topo.Links {
		n.peerOf[l.A] = l.Z
		n.peerOf[l.Z] = l.A
	}
	n.known = make(map[string]bool, len(topo.Nodes))
	for _, node := range topo.Nodes {
		n.known[node.Name] = true
	}
	for name, a := range afts {
		if !n.known[name] {
			return nil, fmt.Errorf("verify: AFT for unknown device %q", name)
		}
		d, err := buildDevice(name, a)
		if err != nil {
			return nil, err
		}
		n.devices[name] = d
	}
	n.rebuildOwners()
	return n, nil
}

// hopGroups interns resolved next-hop slices: across 10k devices the same
// ECMP group contents (same neighbor address, same egress interface shape)
// recur constantly, and fibEntry.hops is the verification engine's largest
// per-device allocation. The forwarding walks only read IPAddress, Interface,
// PushedLabels, Drop, and Receive, so the canonical slice's Index fields are
// irrelevant and groups are keyed on the semantic fields alone.
var hopGroups struct {
	sync.Mutex
	m map[string][]aft.NextHop
}

func internHops(hops []aft.NextHop) []aft.NextHop {
	if len(hops) == 0 {
		return nil
	}
	var b []byte
	for _, h := range hops {
		b = append(b, h.IPAddress...)
		b = append(b, '|')
		b = append(b, h.Interface...)
		for _, l := range h.PushedLabels {
			b = append(b, '|')
			b = strconv.AppendUint(b, uint64(l), 10)
		}
		if h.Drop {
			b = append(b, "|D"...)
		}
		if h.Receive {
			b = append(b, "|R"...)
		}
		b = append(b, '\n')
	}
	hopGroups.Lock()
	defer hopGroups.Unlock()
	if c, ok := hopGroups.m[string(b)]; ok {
		return c
	}
	if hopGroups.m == nil {
		hopGroups.m = map[string][]aft.NextHop{}
	}
	c := append([]aft.NextHop(nil), hops...)
	hopGroups.m[string(b)] = c
	return c
}

// buildDevice validates and indexes one AFT, caching the device's
// equivalence-class interval cuts and owned addresses alongside the trie.
func buildDevice(name string, a *aft.AFT) (*device, error) {
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	d := &device{name: name, fib: routing.NewTrie[*fibEntry]()}
	// Bulk-allocate the entries: one backing array instead of a heap object
	// per route keeps the retained per-router footprint flat at 10k devices.
	entries := make([]fibEntry, 0, len(a.IPv4Entries))
	d.bounds = make([]uint32, 0, 2*len(a.IPv4Entries))
	// Many prefixes share a group; resolve and intern each group once.
	groupHops := make(map[uint64][]aft.NextHop, len(a.NextHopGroups))
	for _, e := range a.IPv4Entries {
		// Validate above guarantees well-formed IPv4 prefixes; parse
		// defensively anyway so a hostile AFT can never panic the verifier.
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			return nil, fmt.Errorf("verify: device %s: bad prefix %q", name, e.Prefix)
		}
		hops, ok := groupHops[e.NextHopGroup]
		if !ok {
			hops = internHops(a.GroupHops(e.NextHopGroup))
			groupHops[e.NextHopGroup] = hops
		}
		entries = append(entries, fibEntry{prefix: intern.String(e.Prefix), hops: hops})
		d.fib.Insert(p, &entries[len(entries)-1])
		start := addrU32(p.Addr())
		d.bounds = append(d.bounds, start)
		size := uint64(1) << (32 - p.Bits())
		if end := uint64(start) + size; end <= 1<<32-1 {
			d.bounds = append(d.bounds, uint32(end))
		}
		if p.Bits() == 32 {
			for _, h := range hops {
				if h.Receive {
					d.owned = append(d.owned, p.Addr())
					break
				}
			}
		}
	}
	return d, nil
}

// rebuildOwners re-derives the owners map from the per-device caches, in
// sorted device order so ownership conflicts resolve deterministically.
func (n *Network) rebuildOwners() {
	names := make([]string, 0, len(n.devices))
	for name := range n.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, a := range n.devices[name].owned {
			n.owners[a] = name
		}
	}
}

// UpdateFrom builds the verification snapshot that follows n after only the
// dirty devices changed. Clean devices — present in both snapshots and not
// named in dirty — reuse n's indexed tries and cached equivalence-class
// interval contributions, so the rebuild cost is proportional to the blast
// radius rather than the network size. afts is the device set of the new
// snapshot — normally the complete AFT set, but a growing partial set is
// also legal (the region-sharded pipeline streams each finished region's
// AFTs into the accumulating network; devices absent from afts simply have
// no forwarding state yet). dirty must name every device whose AFT differs
// from n's (a superset is fine; the chaos engine derives it from the
// emulator's FIB-generation stamps). Worker-pool size and observability
// handles carry over; the memoized per-class outcomes do not, since path
// outcomes are a global property.
func (n *Network) UpdateFrom(afts map[string]*aft.AFT, dirty []string) (*Network, error) {
	out := &Network{
		topo:    n.topo,
		devices: make(map[string]*device, len(afts)),
		peerOf:  n.peerOf,
		owners:  map[netip.Addr]string{},
		known:   n.known,
		workers: n.workers,

		cTraces:     n.cTraces,
		cQueries:    n.cQueries,
		cFlows:      n.cFlows,
		cMemoHits:   n.cMemoHits,
		cMemoMisses: n.cMemoMisses,
		cTruncated:  n.cTruncated,
		gECs:        n.gECs,
		gInflight:   n.gInflight,
		wallHist:    n.wallHist,
	}
	dirtySet := make(map[string]bool, len(dirty))
	for _, name := range dirty {
		dirtySet[name] = true
	}
	for name, a := range afts {
		if d, ok := n.devices[name]; ok && !dirtySet[name] {
			out.devices[name] = d
			continue
		}
		if !n.known[name] {
			return nil, fmt.Errorf("verify: AFT for unknown device %q", name)
		}
		d, err := buildDevice(name, a)
		if err != nil {
			return nil, err
		}
		out.devices[name] = d
	}
	out.rebuildOwners()
	return out, nil
}

// Devices returns the devices with forwarding state, sorted.
func (n *Network) Devices() []string {
	out := make([]string, 0, len(n.devices))
	for name := range n.devices {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Owner returns the device owning addr (delivering it locally).
func (n *Network) Owner(addr netip.Addr) (string, bool) {
	d, ok := n.owners[addr]
	return d, ok
}

// OwnedAddrs returns every locally delivered address, sorted.
func (n *Network) OwnedAddrs() []netip.Addr {
	out := make([]netip.Addr, 0, len(n.owners))
	for a := range n.owners {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Trace performs an exhaustive multipath forwarding walk from src toward
// dst.
func (n *Network) Trace(src string, dst netip.Addr) Trace {
	n.cTraces.Inc()
	t := Trace{Src: src, Dst: dst}
	d, ok := n.devices[src]
	if !ok {
		t.Paths = []Path{{Disposition: NoRoute, Final: src}}
		return t
	}
	visited := map[string]bool{}
	n.walk(d, dst, nil, visited, &t)
	if len(t.Paths) == 0 {
		t.Paths = []Path{{Disposition: NoRoute, Final: src}}
	}
	if t.Truncated {
		n.cTruncated.Inc()
	}
	return t
}

// walk extends hops in place as it descends, so siblings reuse one backing
// array; every recorded path takes its own copy.
func (n *Network) walk(d *device, dst netip.Addr, hops []Hop, visited map[string]bool, t *Trace) {
	if len(t.Paths) >= maxBranches {
		t.Truncated = true
		return
	}
	if visited[d.name] || len(hops) >= maxPathHops {
		t.Paths = append(t.Paths, Path{Hops: slices.Clone(hops), Disposition: Loop, Final: d.name})
		return
	}
	visited[d.name] = true
	defer delete(visited, d.name) // backtrack for sibling ECMP branches

	_, entry, ok := d.fib.Lookup(dst)
	if !ok {
		t.Paths = append(t.Paths, Path{Hops: slices.Clone(hops), Disposition: NoRoute, Final: d.name})
		return
	}
	for _, h := range entry.hops {
		if len(t.Paths) >= maxBranches {
			t.Truncated = true
			return
		}
		step := Hop{Device: d.name, Matched: entry.prefix, Egress: h.Interface}
		disp := Delivered
		switch {
		case h.Receive:
			step.Egress = ""
		case h.Drop:
			step.Egress, disp = "", Dropped
		default:
			disp = ExitsNetwork
			if peer, wired := n.peerOf[topology.Endpoint{Node: d.name, Interface: h.Interface}]; wired {
				if next, ok := n.devices[peer.Node]; ok {
					n.walk(next, dst, append(hops, step), visited, t)
					continue
				}
			}
		}
		t.Paths = append(t.Paths, Path{Hops: append(hops[:len(hops):len(hops)], step), Disposition: disp, Final: d.name})
	}
}

// Reachable reports whether any forwarding branch delivers dst from src.
func (n *Network) Reachable(src string, dst netip.Addr) bool {
	return n.Trace(src, dst).Delivered()
}

// EquivalenceClasses computes the atomic destination ranges induced by
// every FIB prefix in the network and returns one representative address
// per class. Two addresses in the same class are forwarded identically by
// every device, so checking representatives is exhaustive over the whole
// IPv4 space.
//
// The classes are a pure function of the immutable snapshot, so they are
// computed once — by merging the sorted prefix interval boundaries, not by
// rebuilding a boundary map — and cached on the Network. Callers must not
// mutate the returned slice.
func (n *Network) EquivalenceClasses() []netip.Addr {
	n.ecOnce.Do(func() { n.ecs = n.computeClasses() })
	n.gECs.Set(int64(len(n.ecs)))
	return n.ecs
}

// computeClasses merges every FIB prefix's [start, end) interval boundary
// into one sorted, deduplicated cut list: each prefix contributes its start
// and its end's successor, and every cut starts one equivalence class. The
// per-device boundary lists are cached at build time (see buildDevice), so
// an incremental snapshot pays only the merge here, not the trie walks.
func (n *Network) computeClasses() []netip.Addr {
	total := 1
	for _, d := range n.devices {
		total += len(d.bounds)
	}
	bounds := make([]uint32, 0, total)
	bounds = append(bounds, 0)
	for _, d := range n.devices {
		bounds = append(bounds, d.bounds...)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make([]netip.Addr, 0, len(bounds))
	var last uint32
	for i, b := range bounds {
		if i > 0 && b == last {
			continue
		}
		out = append(out, u32Addr(b))
		last = b
	}
	return out
}

func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func u32Addr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// LoopReport is one detected forwarding loop.
type LoopReport struct {
	Dst  netip.Addr
	Src  string
	Path Path
}

// DetectLoops exhaustively checks every equivalence class from every device
// for forwarding loops, in parallel over the network's worker pool.
func (n *Network) DetectLoops() []LoopReport {
	return Queries{Workers: n.workers}.DetectLoops(n)
}

// BlackHole is a destination class dropped (explicitly or by missing route)
// at some device.
type BlackHole struct {
	Dst         netip.Addr
	Src         string
	Disposition Disposition
}

// DetectBlackHoles reports classes that neither deliver nor exit from some
// source, in parallel over the network's worker pool.
func (n *Network) DetectBlackHoles() []BlackHole {
	return Queries{Workers: n.workers}.DetectBlackHoles(n)
}

// ReachMatrix is the all-pairs reachability over owned (loopback and
// interface) addresses: Matrix[src][dstAddr] = delivered.
type ReachMatrix struct {
	Sources []string
	Dsts    []netip.Addr
	Reach   map[string]map[netip.Addr]bool
}

// AllPairs computes the full reachability matrix over owned addresses, in
// parallel over the network's worker pool.
func (n *Network) AllPairs() ReachMatrix {
	return Queries{Workers: n.workers}.AllPairs(n)
}

// FullMesh reports whether every device reaches every owned address.
func (m ReachMatrix) FullMesh() bool {
	for _, row := range m.Reach {
		for _, ok := range row {
			if !ok {
				return false
			}
		}
	}
	return true
}

// Diff is one differential-reachability finding: a (source, destination
// class) flow whose outcome differs between two snapshots.
type Diff struct {
	Src string
	// Dst is the representative address of the affected class.
	Dst netip.Addr
	// Before/After are the flow's outcomes in each snapshot. They may share
	// backing arrays with the networks' memoized outcomes: do not modify.
	Before, After Outcome
}

// Lost reports whether the flow delivered before and no longer delivers.
func (d Diff) Lost() bool { return d.Before.Has(Delivered) && !d.After.Has(Delivered) }

// String renders "r5 -> 2.2.2.1: Delivered@r2 => NoRoute@r5".
func (d Diff) String() string {
	return fmt.Sprintf("%s -> %v: %s => %s", d.Src, d.Dst, d.Before, d.After)
}

// Differential runs the differential reachability question between two
// snapshots: it evaluates every equivalence class of either network from
// every device and reports flows whose outcome changed. This is the query
// the paper uses to validate the pipeline (experiment E1) and to compare
// model-based against model-free dataplanes (experiment E3). It runs on the
// batch engine: flows are sharded across a worker pool (sized by whichever
// snapshot has SetWorkers configured) and per-device outcomes are memoized
// on each network, while the merged output stays byte-identical to the
// sequential evaluation order regardless of worker count.
func Differential(before, after *Network) []Diff {
	return pairQueries(before, after).Differential(before, after)
}

// pairQueries sizes a two-snapshot query's pool by whichever network has
// SetWorkers configured, before first.
func pairQueries(before, after *Network) Queries {
	return Queries{Workers: cmp.Or(before.workers, after.workers)}
}
