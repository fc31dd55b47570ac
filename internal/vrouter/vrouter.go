// Package vrouter implements the virtual router: the element that plays the
// role of a vendor's containerized router image in the paper's pipeline. It
// binds parsed device intent (internal/config/ir) to real protocol engines —
// BGP, IS-IS, RSVP-TE — over emulated interfaces, maintains the RIB/FIB, and
// exports the converged AFT through the management plane.
//
// Vendor behaviour profiles capture implementation-specific quirks (RSVP
// timer profiles, BGP update validation limits) so multi-vendor topologies
// can exhibit the interplay bugs the paper argues only emulation can catch.
package vrouter

import (
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"time"

	"mfv/internal/aft"
	"mfv/internal/bgp"
	"mfv/internal/config/ir"
	"mfv/internal/dataplane"
	"mfv/internal/isis"
	"mfv/internal/mpls"
	"mfv/internal/obs"
	"mfv/internal/routing"
	"mfv/internal/sim"
)

// Profile captures vendor-implementation behaviour that differs between
// router OSes.
type Profile struct {
	// Name labels the vendor ("eos", "junoslike").
	Name string
	// RSVPTimers is the vendor's RSVP-TE soft-state profile.
	RSVPTimers mpls.Timers
	// MaxCommunities is the largest community count the BGP implementation
	// tolerates in one UPDATE; an update exceeding it crashes the routing
	// process (reproducing the vendor-interplay outage class from the
	// paper). Zero means unlimited.
	MaxCommunities int
	// BootTime is the simulated container start-to-ready time.
	BootTime time.Duration
	// RouteProcPerSec is the control plane's BGP route-processing
	// throughput (prefixes per second of virtual time). Inbound UPDATEs
	// are paced at this rate, which is what makes convergence time scale
	// with injected table size as the paper observes. The shipped rates
	// are scaled 10× down together with the experiment feed sizes
	// (DESIGN.md documents the substitution), preserving the convergence
	// shape at laptop-friendly simulation cost.
	RouteProcPerSec int
}

// Profiles for the two shipped dialects.
var (
	// EOSProfile mirrors the paper's Arista cEOS evaluation target:
	// 0.5 vCPU / 1 GB per container, fast RSVP timers.
	EOSProfile = Profile{
		Name:            "eos",
		RSVPTimers:      mpls.DefaultTimers(),
		MaxCommunities:  0,
		BootTime:        90 * time.Second,
		RouteProcPerSec: 1200,
	}
	// JunosLikeProfile uses slow RSVP timers and a bounded community
	// parser, the combination behind the interplay pathologies in §2.
	JunosLikeProfile = Profile{
		Name:            "junoslike",
		RSVPTimers:      mpls.SlowTimers(),
		MaxCommunities:  64,
		BootTime:        150 * time.Second,
		RouteProcPerSec: 900,
	}
)

// ProfileFor returns the vendor profile by dialect name.
func ProfileFor(vendor string) Profile {
	if vendor == "junoslike" {
		return JunosLikeProfile
	}
	return EOSProfile
}

// Iface is a runtime interface: configuration plus link state.
type Iface struct {
	Cfg  *ir.Interface
	Up   bool
	send func([]byte) // frames out this port; nil when unwired
}

// Router is one virtual router instance.
type Router struct {
	Name    string
	Profile Profile
	dev     *ir.Device
	clock   *sim.Simulator

	rib *routing.RIB
	fib *dataplane.FIB

	ifaces map[string]*Iface

	ISIS *isis.Engine
	BGP  *bgp.Speaker
	MPLS *mpls.Engine

	// SendToAddr delivers a payload to the router owning addr, routed
	// hop-by-hop by the substrate (assigned by the orchestrator). Used by
	// BGP sessions and RSVP signaling.
	SendToAddr func(dst netip.Addr, payload []byte)

	// onStateChange, when set, is invoked after any RIB change settles;
	// the orchestrator uses it for convergence tracking.
	onStateChange func()

	// OnQuarantine, when set, is invoked after the router quarantines
	// itself (hostile input or an escaped handler panic); the orchestrator
	// uses it to mark the pod contained without rescheduling it.
	OnQuarantine func(reason string)

	// isisRoutes is the route set IS-IS last delivered, exactly as
	// installed in the RIB; the engine never mutates a delivered set.
	isisRoutes []isis.Route

	ribDirty    *sim.Event
	crashed     bool
	down        bool
	quarantined bool
	CrashCount  int
	// busyUntil is the virtual time the BGP process finishes its queued
	// work; inbound updates are paced behind it.
	busyUntil time.Duration
	// nhState caches the last observed resolution of each BGP next hop, so
	// post-RIB-change revalidation is O(distinct next hops).
	nhState map[netip.Addr]nhResolution

	// localAddrs/localSet cache the interface address set. A router's
	// configured addresses never change over its lifetime (a config change
	// builds a replacement Router), and OwnsAddr sits on the per-packet
	// delivery path, so the nested interface scan is hoisted to New.
	localAddrs []netip.Addr
	localSet   map[netip.Addr]bool

	// aftCache holds the last rendered AFT and the FIB generation it was
	// rendered at; ExportAFT reuses it while the generation is unchanged.
	aftCache *aft.AFT
	aftGen   uint64

	// Observability (nil handles are no-ops).
	obs          *obs.Observer
	hFIBNanos    *obs.Histogram
	cCrashes     *obs.Counter
	cQuarantined *obs.Counter
}

type nhResolution struct {
	metric uint32
	ok     bool
}

// New builds a router from parsed intent. The router is inert until Start.
func New(name string, dev *ir.Device, profile Profile, clock *sim.Simulator) (*Router, error) {
	r := &Router{
		Name:    name,
		Profile: profile,
		dev:     dev,
		clock:   clock,
		rib:     routing.NewRIB(),
		ifaces:  map[string]*Iface{},
		nhState: map[netip.Addr]nhResolution{},
	}
	for _, intf := range dev.Interfaces {
		r.ifaces[intf.Name] = &Iface{Cfg: intf, Up: !intf.Shutdown}
		for _, p := range intf.Addresses {
			r.localAddrs = append(r.localAddrs, p.Addr())
		}
	}
	sort.Slice(r.localAddrs, func(i, j int) bool { return r.localAddrs[i].Less(r.localAddrs[j]) })
	r.localSet = make(map[netip.Addr]bool, len(r.localAddrs))
	for _, a := range r.localAddrs {
		r.localSet[a] = true
	}
	if err := r.buildProtocols(); err != nil {
		return nil, err
	}
	r.rib.OnChange(func(netip.Prefix, *routing.Route) { r.scheduleRIBSettled() })
	return r, nil
}

// SetObserver wires the router and its protocol engines into the
// observability layer. Call before Start so session and adjacency
// transitions are traced from the first event.
func (r *Router) SetObserver(o *obs.Observer) {
	r.obs = o
	r.hFIBNanos = o.Histogram("fib_recompute_ns")
	r.cCrashes = o.Counter("bgp_crashes_total")
	r.cQuarantined = o.Counter("vrouter_quarantined_total")
	if r.BGP != nil {
		r.BGP.SetObserver(o)
	}
	if r.ISIS != nil {
		r.ISIS.SetObserver(o)
	}
}

// Device returns the parsed intent the router runs.
func (r *Router) Device() *ir.Device { return r.dev }

// RIB exposes the routing table for inspection (the emulated "show ip
// route").
func (r *Router) RIB() *routing.RIB { return r.rib }

// LocalAddrs returns every configured interface address, sorted.
func (r *Router) LocalAddrs() []netip.Addr {
	return append([]netip.Addr(nil), r.localAddrs...)
}

// OwnsAddr reports whether addr is one of this router's interface addresses.
func (r *Router) OwnsAddr(a netip.Addr) bool { return r.localSet[a] }

// routerID picks the BGP router ID: explicit config, else the numerically
// highest loopback address, else the highest interface address.
func (r *Router) routerID() netip.Addr {
	if r.dev.BGP != nil && r.dev.BGP.RouterID.IsValid() {
		return r.dev.BGP.RouterID
	}
	var bestLo, best netip.Addr
	for _, intf := range r.dev.Interfaces {
		for _, p := range intf.Addresses {
			if isLoopback(intf.Name) {
				if !bestLo.IsValid() || bestLo.Less(p.Addr()) {
					bestLo = p.Addr()
				}
			}
			if !best.IsValid() || best.Less(p.Addr()) {
				best = p.Addr()
			}
		}
	}
	if bestLo.IsValid() {
		return bestLo
	}
	return best
}

func isLoopback(name string) bool {
	return strings.HasPrefix(name, "Loopback") || strings.HasPrefix(name, "lo")
}

func (r *Router) buildProtocols() error {
	if r.dev.ISIS != nil {
		if err := r.buildISIS(); err != nil {
			return err
		}
	}
	if r.dev.BGP != nil {
		if err := r.buildBGP(); err != nil {
			return err
		}
	}
	if r.dev.MPLS != nil && (r.dev.MPLS.Enabled || r.dev.MPLS.TE || len(r.dev.MPLS.LSPs) > 0) {
		// "mpls ip" alone runs the RSVP process so the node can act as an
		// LSP transit, exactly as on real devices.
		r.buildMPLS()
	}
	return nil
}

func (r *Router) buildISIS() error {
	sysIDStr, err := r.dev.ISIS.SystemID()
	if err != nil {
		return fmt.Errorf("vrouter %s: %w", r.Name, err)
	}
	sysID, err := isis.ParseSystemID(sysIDStr)
	if err != nil {
		return fmt.Errorf("vrouter %s: %w", r.Name, err)
	}
	eng := isis.New(isis.Config{
		SystemID: sysID,
		Hostname: r.Name,
		Clock:    r.clock,
		OnRoutes: r.installISISRoutes,
	})
	for _, intf := range r.dev.Interfaces {
		if !intf.ISISEnabled || intf.Shutdown {
			continue
		}
		addr, ok := intf.PrimaryAddress()
		if !ok {
			continue // IS-IS on an addressless interface is inert
		}
		var prefixes []netip.Prefix
		for _, p := range intf.Addresses {
			prefixes = append(prefixes, p.Masked())
		}
		eng.AddInterface(isis.InterfaceConfig{
			Name:     intf.Name,
			Addr:     addr.Addr(),
			Prefixes: prefixes,
			Metric:   intf.ISISMetric,
			Passive:  intf.ISISPassive || isLoopback(intf.Name) || r.dev.ISIS.PassiveDefault,
		})
	}
	r.ISIS = eng
	return nil
}

// installISISRoutes moves the RIB's IS-IS candidates from the previous
// delivery to routes. Both sets are sorted by (address, length), so one
// merge walk withdraws prefixes that left, installs new or changed routes
// and leaves equal ones alone: the RIB version moves only for elected
// routes that really changed.
func (r *Router) installISISRoutes(routes []isis.Route) {
	prev := r.isisRoutes
	r.isisRoutes = routes
	for len(prev) > 0 || len(routes) > 0 {
		var c int
		switch {
		case len(prev) == 0:
			c = 1
		case len(routes) == 0:
			c = -1
		default:
			c = comparePrefix(prev[0].Prefix, routes[0].Prefix)
		}
		switch {
		case c < 0:
			r.rib.Withdraw(prev[0].Prefix, routing.ProtoISIS)
			prev = prev[1:]
		case c > 0:
			r.installISISRoute(routes[0])
			routes = routes[1:]
		default:
			if !sameISISRoute(prev[0], routes[0]) {
				r.installISISRoute(routes[0])
			}
			prev, routes = prev[1:], routes[1:]
		}
	}
}

func (r *Router) installISISRoute(rt isis.Route) {
	hops := make([]routing.NextHop, len(rt.NextHops))
	for i, h := range rt.NextHops {
		hops[i] = routing.NextHop{IP: h.IP, Interface: h.Interface}
	}
	r.rib.Install(routing.Route{
		Prefix:   rt.Prefix,
		Protocol: routing.ProtoISIS,
		Distance: routing.ProtoISIS.DefaultDistance(),
		Metric:   rt.Metric,
		NextHops: hops,
	})
}

// comparePrefix orders prefixes by address, then length: the order IS-IS
// delivers routes in.
func comparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return a.Bits() - b.Bits()
}

func sameISISRoute(a, b isis.Route) bool {
	return a.Metric == b.Metric && slices.Equal(a.NextHops, b.NextHops)
}

func (r *Router) buildBGP() error {
	cfg := r.dev.BGP
	spk := bgp.NewSpeaker(bgp.Config{
		Hostname: r.Name,
		ASN:      cfg.ASN,
		RouterID: r.routerID(),
		Clock:    r.clock,
		Resolver: bgp.ResolverFunc(func(nh netip.Addr) (uint32, bool) {
			if r.OwnsAddr(nh) {
				return 0, true
			}
			rt, ok := r.rib.Lookup(nh)
			if !ok || rt.Drop {
				return 0, false
			}
			return rt.Metric, true
		}),
		OnBestChange: r.installBGPRoute,
	})
	env := r.dev.PolicyEnv()
	for _, n := range cfg.Neighbors {
		if n.Shutdown {
			continue
		}
		local, err := r.bgpLocalAddr(n)
		if err != nil {
			return err
		}
		pc := bgp.PeerConfig{
			Addr:          n.Addr,
			LocalAddr:     local,
			RemoteAS:      n.RemoteAS,
			NextHopSelf:   n.NextHopSelf,
			RRClient:      n.RouteReflectorClient,
			SendCommunity: n.SendCommunity,
			Env:           env,
		}
		if n.RouteMapIn != "" {
			pc.ImportPolicy = r.dev.RouteMaps[n.RouteMapIn]
		}
		if n.RouteMapOut != "" {
			pc.ExportPolicy = r.dev.RouteMaps[n.RouteMapOut]
		}
		spk.AddPeer(pc)
	}
	r.BGP = spk
	return nil
}

// bgpLocalAddr determines the session source address for a neighbor:
// update-source interface when configured, otherwise the interface sharing
// a subnet with the neighbor, otherwise the router ID.
func (r *Router) bgpLocalAddr(n *ir.Neighbor) (netip.Addr, error) {
	if n.UpdateSource != "" {
		intf := r.ifaces[n.UpdateSource]
		if intf == nil || len(intf.Cfg.Addresses) == 0 {
			return netip.Addr{}, fmt.Errorf("vrouter %s: neighbor %v update-source %s has no address",
				r.Name, n.Addr, n.UpdateSource)
		}
		return intf.Cfg.Addresses[0].Addr(), nil
	}
	for _, intf := range r.dev.Interfaces {
		for _, p := range intf.Addresses {
			if p.Masked().Contains(n.Addr) {
				return p.Addr(), nil
			}
		}
	}
	id := r.routerID()
	if !id.IsValid() {
		return netip.Addr{}, fmt.Errorf("vrouter %s: cannot determine local address for neighbor %v", r.Name, n.Addr)
	}
	return id, nil
}

func (r *Router) installBGPRoute(prefix netip.Prefix, p *bgp.Path) {
	// Withdraw both protocol slots; the winner reinstalls one of them.
	proto := routing.ProtoIBGP
	if p != nil && !p.FromIBGP {
		proto = routing.ProtoEBGP
	}
	if p == nil || p.Local {
		r.rib.Withdraw(prefix, routing.ProtoEBGP)
		r.rib.Withdraw(prefix, routing.ProtoIBGP)
		return
	}
	other := routing.ProtoEBGP
	if proto == routing.ProtoEBGP {
		other = routing.ProtoIBGP
	}
	r.rib.Withdraw(prefix, other)
	r.rib.Install(routing.Route{
		Prefix:   prefix,
		Protocol: proto,
		Distance: proto.DefaultDistance(),
		NextHops: []routing.NextHop{{IP: p.Attrs.NextHop}},
	})
}

func (r *Router) buildMPLS() {
	rid := r.routerID()
	eng := mpls.New(mpls.Config{
		RouterID: rid,
		Clock:    r.clock,
		Timers:   r.Profile.RSVPTimers,
		Resolver: mpls.HopResolverFunc(func(dst netip.Addr) (netip.Addr, bool) {
			return r.adjacentHopToward(dst)
		}),
		Forward: func(dst netip.Addr, data []byte) {
			if r.SendToAddr != nil {
				r.SendToAddr(dst, data)
			}
		},
		OnLSPChange: r.installTunnelRoute,
	})
	r.MPLS = eng
}

// adjacentHopToward resolves dst to the immediate adjacent router address.
func (r *Router) adjacentHopToward(dst netip.Addr) (netip.Addr, bool) {
	rt, ok := r.rib.Lookup(dst)
	if !ok || rt.Drop || len(rt.NextHops) == 0 {
		return netip.Addr{}, false
	}
	hops, err := r.ensureFIB().Resolve(rt)
	if err != nil || len(hops) == 0 {
		return netip.Addr{}, false
	}
	h := hops[0]
	if h.Drop || h.Receive {
		return netip.Addr{}, false
	}
	if h.IP.IsValid() {
		return h.IP, true
	}
	// Directly attached destination (e.g. /31 peer): dst itself is adjacent.
	return dst, true
}

func (r *Router) installTunnelRoute(l mpls.LSPState) {
	prefix := netip.PrefixFrom(l.To, 32)
	if !l.Up {
		r.rib.Withdraw(prefix, routing.ProtoTE)
		return
	}
	r.rib.Install(routing.Route{
		Prefix:   prefix,
		Protocol: routing.ProtoTE,
		Distance: routing.ProtoTE.DefaultDistance(),
		NextHops: []routing.NextHop{{IP: l.NextHop, LabelStack: []uint32{l.OutLabel}}},
	})
}

// Start boots the router: installs connected/local/static routes, starts
// protocol engines, and signals configured tunnels.
func (r *Router) Start() {
	r.installConnected()
	r.installStatics()
	if r.ISIS != nil {
		r.ISIS.Start()
	}
	if r.MPLS != nil {
		r.MPLS.Start()
		for _, lsp := range r.dev.MPLS.LSPs {
			r.MPLS.Signal(lsp.Name+"@"+r.Name, lsp.To)
		}
	}
	if r.BGP != nil {
		r.originateBGP()
	}
}

// Stop cancels protocol timers.
func (r *Router) Stop() {
	if r.ISIS != nil {
		r.ISIS.Stop()
	}
	if r.MPLS != nil {
		r.MPLS.Stop()
	}
	if r.BGP != nil {
		for _, p := range r.BGP.Peers() {
			p.TransportDown()
		}
	}
}

// Shutdown makes the router permanently inert, modelling the pod dying: all
// protocol timers are canceled, sessions torn down, and every inbound and
// dataplane path gated off. A shutdown router is never restarted — the
// orchestrator builds a fresh Router when the replacement pod boots, exactly
// as Kubernetes restarts a container from its image.
func (r *Router) Shutdown() {
	if r.down {
		return
	}
	r.down = true
	r.onStateChange = nil
	r.Stop()
	if r.ribDirty != nil {
		r.clock.Cancel(r.ribDirty)
		r.ribDirty = nil
	}
}

// Quarantine permanently contains the router's control plane: hostile input
// (corrupted config, an undecodable AFT, a handler panic) made this router
// untrustworthy, so it is shut down exactly like a dead pod — neighbors see
// the session drop, its AFT goes empty — but, unlike a crash, it is NOT
// rescheduled: restarting it would just replay the hostile input. The
// containment boundary is one router; the run completes degraded.
func (r *Router) Quarantine(reason string) {
	if r.quarantined || r.down {
		return
	}
	r.quarantined = true
	r.cQuarantined.Inc()
	if r.obs.Enabled() {
		r.obs.Emit(obs.Event{Type: obs.EvQuarantine, Device: r.Name, Detail: reason})
	}
	cb := r.OnQuarantine
	r.Shutdown()
	if cb != nil {
		cb(reason)
	}
}

// Quarantined reports whether the router has been quarantined.
func (r *Router) Quarantined() bool { return r.quarantined }

// guard is the per-router crash containment boundary: a panic escaping an
// input handler quarantines this one router instead of unwinding the whole
// simulation. Deferred at every entry point that processes external input.
func (r *Router) guard(source string) {
	if p := recover(); p != nil {
		r.Quarantine(fmt.Sprintf("panic in %s handler: %v", source, p))
	}
}

func (r *Router) installConnected() {
	for _, intf := range r.dev.Interfaces {
		iface := r.ifaces[intf.Name]
		if intf.Shutdown || (iface != nil && !iface.Up) {
			continue
		}
		for _, p := range intf.Addresses {
			// A /32 interface prefix (loopbacks) is pure local delivery;
			// installing it also as connected would shadow the local route
			// and export a forwarding entry out an unwired port.
			if p.Bits() < 32 {
				r.rib.Install(routing.Route{
					Prefix:   p.Masked(),
					Protocol: routing.ProtoConnected,
					NextHops: []routing.NextHop{{Interface: intf.Name}},
				})
			}
			r.rib.Install(routing.Route{
				Prefix:   netip.PrefixFrom(p.Addr(), 32),
				Protocol: routing.ProtoLocal,
				NextHops: []routing.NextHop{{Interface: intf.Name}},
			})
		}
	}
}

func (r *Router) installStatics() {
	for _, s := range r.dev.Statics {
		dist := s.Distance
		if dist == 0 {
			dist = routing.ProtoStatic.DefaultDistance()
		}
		rt := routing.Route{
			Prefix:   s.Prefix,
			Protocol: routing.ProtoStatic,
			Distance: dist,
			Drop:     s.Drop,
		}
		if !s.Drop {
			rt.NextHops = []routing.NextHop{{IP: s.NextHop, Interface: s.Interface}}
		}
		r.rib.Install(rt)
	}
}

// originateBGP injects network statements and redistributed routes.
func (r *Router) originateBGP() {
	for _, p := range r.dev.BGP.Networks {
		r.BGP.Originate(p, bgp.PathAttrs{Origin: bgp.OriginIGP})
	}
	r.syncRedistribution()
}

// syncRedistribution re-derives redistributed local paths from the RIB.
func (r *Router) syncRedistribution() {
	if r.BGP == nil {
		return
	}
	want := map[netip.Prefix]bgp.PathAttrs{}
	for _, p := range r.dev.BGP.Networks {
		want[p.Masked()] = bgp.PathAttrs{Origin: bgp.OriginIGP}
	}
	for _, src := range r.dev.BGP.Redistribute {
		for _, rt := range r.rib.Routes() {
			match := false
			switch src {
			case "connected":
				match = rt.Protocol == routing.ProtoConnected
			case "static":
				match = rt.Protocol == routing.ProtoStatic
			case "isis":
				match = rt.Protocol == routing.ProtoISIS
			}
			if match {
				if _, have := want[rt.Prefix]; !have {
					want[rt.Prefix] = bgp.PathAttrs{Origin: bgp.OriginIncomplete, MED: rt.Metric, HasMED: true}
				}
			}
		}
	}
	// Install the desired set; withdraw locals that no longer qualify.
	current := map[netip.Prefix]bool{}
	for _, p := range r.BGP.BestRoutes() {
		if p.Local {
			current[p.Prefix] = true
		}
	}
	for prefix, attrs := range want {
		r.BGP.Originate(prefix, attrs)
		delete(current, prefix)
	}
	for prefix := range current {
		r.BGP.WithdrawLocal(prefix)
	}
}

// scheduleRIBSettled batches post-RIB-change work (BGP next-hop
// reevaluation, redistribution sync) one event-loop turn later, breaking
// re-entrancy between protocol engines.
func (r *Router) scheduleRIBSettled() {
	if r.ribDirty != nil {
		return
	}
	r.ribDirty = r.clock.After(10*time.Millisecond, func() {
		r.ribDirty = nil
		if r.BGP != nil {
			if r.nextHopStateChanged() {
				r.BGP.ReevaluateNextHops()
			}
			// Redistribution only needs a rescan when something is
			// actually redistributed; network statements are static.
			if len(r.dev.BGP.Redistribute) > 0 {
				r.syncRedistribution()
			}
		}
		if r.onStateChange != nil {
			r.onStateChange()
		}
	})
}

// nextHopStateChanged re-resolves every distinct BGP next hop against the
// RIB and reports whether any resolution changed since the last check.
func (r *Router) nextHopStateChanged() bool {
	changed := false
	current := map[netip.Addr]nhResolution{}
	for _, nh := range r.BGP.DistinctNextHops() {
		var res nhResolution
		if r.OwnsAddr(nh) {
			res = nhResolution{0, true}
		} else if rt, ok := r.rib.Lookup(nh); ok && !rt.Drop {
			res = nhResolution{rt.Metric, true}
		}
		current[nh] = res
		if prev, seen := r.nhState[nh]; !seen || prev != res {
			changed = true
		}
	}
	if len(current) != len(r.nhState) {
		changed = true
	}
	r.nhState = current
	return changed
}

// OnStateChange registers the orchestrator's convergence probe.
func (r *Router) OnStateChange(fn func()) { r.onStateChange = fn }

// ensureFIB lazily builds the FIB view.
func (r *Router) ensureFIB() *dataplane.FIB {
	if r.fib == nil {
		r.fib = dataplane.New(r.rib, r.LocalAddrs())
	}
	return r.fib
}

// FIBGeneration returns a monotonic counter covering every input of the
// exported AFT: the RIB's elected-route version, the MPLS cross-connect
// state version, and the shutdown flag. Equal generations imply an
// identical AFT, so callers can skip re-rendering (and re-verifying)
// routers whose generation has not moved. The counter is per-incarnation:
// a rebuilt router restarts from zero, which the orchestrator disambiguates
// with an epoch (see kne.GenStamp).
func (r *Router) FIBGeneration() uint64 {
	g := r.rib.Version()
	if r.MPLS != nil {
		g += r.MPLS.StateVersion()
	}
	if r.down {
		// Shutdown gates the whole forwarding plane off; the terms above
		// never decrease, so the +1 keeps the sum strictly increasing across
		// the transition even when no route was withdrawn.
		g++
	}
	return g
}

// ExportAFT renders the current forwarding state. A shutdown router exports
// an empty table: its forwarding plane is gone with the pod. The rendered
// AFT is cached per FIB generation: while no RIB, cross-connect, or
// shutdown change occurred, repeated exports return the same (immutable)
// table without re-resolving anything.
func (r *Router) ExportAFT() *aft.AFT {
	gen := r.FIBGeneration()
	if r.aftCache != nil && r.aftGen == gen {
		return r.aftCache
	}
	a := r.RenderAFT()
	r.aftCache, r.aftGen = a, gen
	return a
}

// AFTCacheValid reports whether ExportAFT would be served from the cache —
// i.e. the router's forwarding state is clean since the last export.
func (r *Router) AFTCacheValid() bool {
	return r.aftCache != nil && r.aftGen == r.FIBGeneration()
}

// RenderAFT renders the forwarding state from scratch, bypassing the
// generation cache. This is the reference (full re-export) path used by the
// incremental-vs-full benchmarks and the cache-invalidation tests.
func (r *Router) RenderAFT() *aft.AFT {
	if r.down {
		return dataplane.New(routing.NewRIB(), nil).ExportAFT(r.Name, nil)
	}
	var start time.Time
	if r.obs != nil {
		start = time.Now()
	}
	var xcs []mpls.CrossConnect
	if r.MPLS != nil {
		xcs = r.MPLS.CrossConnects()
	}
	a := r.ensureFIB().ExportAFT(r.Name, xcs)
	if r.obs != nil {
		r.hFIBNanos.Observe(time.Since(start).Nanoseconds())
	}
	return a
}

// --- Substrate hooks -------------------------------------------------------

// AttachLink wires an interface to a link; frames sent by IS-IS go through
// send, and inbound frames arrive via HandleLinkFrame.
func (r *Router) AttachLink(intfName string, send func([]byte)) {
	iface := r.ifaces[intfName]
	if iface == nil {
		// Interface wired in topology but absent from config: tolerate, the
		// port exists physically but carries no L3 config.
		iface = &Iface{Cfg: &ir.Interface{Name: intfName}, Up: true}
		r.ifaces[intfName] = iface
	}
	iface.send = send
	if r.ISIS != nil {
		r.ISIS.AttachTransport(intfName, send)
	}
}

// DetachLink signals link-down on an interface.
func (r *Router) DetachLink(intfName string) {
	iface := r.ifaces[intfName]
	if iface == nil {
		return
	}
	iface.send = nil
	if r.ISIS != nil {
		r.ISIS.DetachTransport(intfName)
	}
}

// HandleLinkFrame receives a frame from the wire on the named interface.
// IS-IS PDUs are the only link-local frames; routed payloads (BGP, RSVP)
// are delivered by the substrate via DeliverBGP/DeliverRSVP.
func (r *Router) HandleLinkFrame(intfName string, data []byte) {
	if r.Crashed() {
		return
	}
	defer r.guard("isis")
	if r.ISIS != nil {
		r.ISIS.HandlePDU(intfName, data)
	}
}

// DeliverBGP hands a BGP message addressed to this router's address from a
// configured peer. Messages are paced through the vendor's route-processing
// throughput model, so large tables take realistic (virtual) time to
// converge. The vendor profile's update validation runs before processing:
// an update the implementation cannot parse crashes the routing process
// (all sessions reset), reproducing the cross-vendor outage class.
func (r *Router) DeliverBGP(from netip.Addr, data []byte) {
	if r.Crashed() {
		return
	}
	// Keepalives bypass the processing queue: were they paced behind a
	// large table transfer, the hold timer would expire mid-transfer and
	// flap the session — real stacks service keepalives promptly.
	if typ, _, err := bgp.DecodeHeader(data); err == nil && typ == bgp.MsgKeepalive {
		r.processBGP(from, data)
		return
	}
	now := r.clock.Now()
	start := r.busyUntil
	if start < now {
		start = now
	}
	r.busyUntil = start + r.procCost(data)
	r.clock.After(start-now, func() { r.processBGP(from, data) })
}

// procCost models per-message control-plane work: a small fixed cost plus
// per-prefix time at the vendor's processing rate.
func (r *Router) procCost(data []byte) time.Duration {
	const base = 100 * time.Microsecond
	rate := r.Profile.RouteProcPerSec
	if rate <= 0 {
		return base
	}
	decoded, err := bgp.Decode(data)
	if err != nil {
		return base
	}
	u, ok := decoded.(bgp.Update)
	if !ok {
		return base
	}
	prefixes := len(u.NLRI) + len(u.Withdrawn)
	return base + time.Duration(prefixes)*time.Second/time.Duration(rate)
}

func (r *Router) processBGP(from netip.Addr, data []byte) {
	if r.Crashed() {
		return
	}
	defer r.guard("bgp")
	if r.Profile.MaxCommunities > 0 {
		if decoded, err := bgp.Decode(data); err == nil {
			if u, ok := decoded.(bgp.Update); ok && u.Attrs != nil &&
				len(u.Attrs.Communities) > r.Profile.MaxCommunities {
				r.crashRoutingProcess()
				return
			}
		}
	}
	if r.BGP != nil {
		r.BGP.HandleMessage(from, data)
	}
}

// crashRoutingProcess models the vendor bug: the process restarts, dropping
// every BGP session.
func (r *Router) crashRoutingProcess() {
	r.CrashCount++
	r.crashed = true
	r.cCrashes.Inc()
	if r.obs.Enabled() {
		r.obs.Emit(obs.Event{Type: obs.EvCrash, Device: r.Name, Value: int64(r.CrashCount)})
	}
	if r.BGP != nil {
		for _, p := range r.BGP.Peers() {
			p.TransportDown()
		}
	}
	// The process restarts after a simulated supervisor delay; sessions
	// must be re-established by the substrate's reachability prober.
	r.clock.After(30*time.Second, func() { r.crashed = false })
}

// Crashed reports whether the routing process is currently down — either
// the vendor-bug BGP process crash (auto-recovers) or a full Shutdown.
func (r *Router) Crashed() bool { return r.crashed || r.down }

// DeliverRSVP hands an RSVP message addressed to this router.
func (r *Router) DeliverRSVP(data []byte) {
	if r.Crashed() {
		return
	}
	defer r.guard("rsvp")
	if r.MPLS != nil {
		r.MPLS.HandleMessage(data)
	}
}

// ForwardingInterface resolves the egress interface and adjacent address a
// packet to dst would use; ok is false for drops/unroutable.
func (r *Router) ForwardingInterface(dst netip.Addr) (intf string, adjacent netip.Addr, ok bool) {
	if r.down {
		return "", netip.Addr{}, false
	}
	if r.OwnsAddr(dst) {
		return "", netip.Addr{}, false // local delivery, not forwarded
	}
	rt, found := r.rib.Lookup(dst)
	if !found || rt.Drop {
		return "", netip.Addr{}, false
	}
	hops, err := r.ensureFIB().Resolve(rt)
	if err != nil || len(hops) == 0 {
		return "", netip.Addr{}, false
	}
	h := hops[0]
	if h.Drop || h.Receive {
		return "", netip.Addr{}, false
	}
	adjacent = h.IP
	if !adjacent.IsValid() {
		adjacent = dst
	}
	return h.Interface, adjacent, true
}

// CanReach reports whether this router has a non-drop forwarding path (or
// local ownership) for dst — the substrate's TCP-connectivity check for BGP
// session establishment.
func (r *Router) CanReach(dst netip.Addr) bool {
	if r.down {
		return false
	}
	if r.OwnsAddr(dst) {
		return true
	}
	rt, ok := r.rib.Lookup(dst)
	return ok && !rt.Drop
}
