// Package dataplane builds a device's forwarding state from its RIB: it
// performs recursive next-hop resolution (a BGP next hop several IGP hops
// away resolves to a connected adjacency), constructs the FIB, and exports
// the result in the OpenConfig-shaped AFT model.
package dataplane

import (
	"fmt"
	"net/netip"
	"slices"

	"mfv/internal/aft"
	"mfv/internal/intern"
	"mfv/internal/mpls"
	"mfv/internal/routing"
)

// maxRecursion bounds next-hop resolution depth; deeper chains indicate a
// routing loop in recursive resolution.
const maxRecursion = 8

// ResolvedHop is a fully resolved forwarding action.
type ResolvedHop struct {
	// IP is the immediate adjacent address (on a connected subnet).
	IP netip.Addr
	// Interface is the egress port.
	Interface string
	// Labels is the MPLS stack pushed on egress.
	Labels []uint32
	// Drop marks a discard action.
	Drop bool
	// Receive marks local delivery.
	Receive bool
}

// FIB is the resolved forwarding table.
type FIB struct {
	rib *routing.RIB
	// localAddrs are this device's own interface addresses (local
	// delivery).
	localAddrs map[netip.Addr]bool
}

// New builds a FIB view over a RIB. localAddrs are the device's own
// addresses.
func New(rib *routing.RIB, localAddrs []netip.Addr) *FIB {
	m := make(map[netip.Addr]bool, len(localAddrs))
	for _, a := range localAddrs {
		m[a] = true
	}
	return &FIB{rib: rib, localAddrs: m}
}

// Resolve fully resolves the forwarding action(s) for a route.
func (f *FIB) Resolve(r routing.Route) ([]ResolvedHop, error) { return f.resolve(nil, r) }

// resolve is Resolve writing into dst's backing array, so a caller that
// resolves route after route reuses one hop buffer.
func (f *FIB) resolve(dst []ResolvedHop, r routing.Route) ([]ResolvedHop, error) {
	out := dst[:0]
	if r.Drop {
		return append(out, ResolvedHop{Drop: true}), nil
	}
	if r.Protocol == routing.ProtoLocal {
		// The device's own address: local delivery, not forwarding.
		return append(out, ResolvedHop{Receive: true}), nil
	}
	for _, nh := range r.NextHops {
		var err error
		if out, err = f.appendHop(out, nh, 0); err != nil {
			return nil, fmt.Errorf("dataplane: resolving %v: %w", r.Prefix, err)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataplane: route %v resolved to nothing", r.Prefix)
	}
	return dedupHops(out), nil
}

// appendHop appends the resolved forwarding actions of one next hop to out.
func (f *FIB) appendHop(out []ResolvedHop, nh routing.NextHop, depth int) ([]ResolvedHop, error) {
	if depth > maxRecursion {
		return nil, fmt.Errorf("recursion limit hit at %v", nh.IP)
	}
	// Direct (connected) hop: interface known, or no IP at all.
	if nh.Interface != "" {
		return append(out, ResolvedHop{IP: nh.IP, Interface: nh.Interface, Labels: nh.LabelStack}), nil
	}
	if !nh.IP.IsValid() {
		return nil, fmt.Errorf("next hop with neither interface nor address")
	}
	if f.localAddrs[nh.IP] {
		return append(out, ResolvedHop{Receive: true}), nil
	}
	via, ok := f.rib.Lookup(nh.IP)
	if !ok {
		return nil, fmt.Errorf("no route to next hop %v", nh.IP)
	}
	if via.Drop {
		return append(out, ResolvedHop{Drop: true}), nil
	}
	for _, inner := range via.NextHops {
		if via.Protocol == routing.ProtoConnected || via.Protocol == routing.ProtoLocal {
			// Terminal: the original next hop is on a connected subnet.
			intf := inner.Interface
			hop := ResolvedHop{IP: nh.IP, Interface: intf, Labels: nh.LabelStack}
			if via.Protocol == routing.ProtoLocal {
				hop = ResolvedHop{Receive: true}
			}
			out = append(out, hop)
			continue
		}
		start := len(out)
		var err error
		if out, err = f.appendHop(out, inner, depth+1); err != nil {
			return nil, err
		}
		// The recursive route's labels stack under the original's.
		if len(nh.LabelStack) > 0 {
			for i := start; i < len(out); i++ {
				out[i].Labels = append(append([]uint32{}, nh.LabelStack...), out[i].Labels...)
			}
		}
	}
	return out, nil
}

// dedupHops drops repeated hops, keeping first occurrences in order. The
// resolver owns in, so the filter runs in place; hop lists are short enough
// that a linear scan beats any keyed set.
func dedupHops(in []ResolvedHop) []ResolvedHop {
	if len(in) < 2 {
		return in
	}
	out := in[:1]
	for _, h := range in[1:] {
		if !slices.ContainsFunc(out, h.equal) {
			out = append(out, h)
		}
	}
	return out
}

// equal reports whether two hops forward identically; nil and empty label
// stacks are the same stack.
func (h ResolvedHop) equal(o ResolvedHop) bool {
	return h.IP == o.IP && h.Interface == o.Interface && h.Drop == o.Drop &&
		h.Receive == o.Receive && slices.Equal(h.Labels, o.Labels)
}

// ExportAFT renders the full RIB as an AFT, resolving every elected route.
// Unresolvable routes are skipped (they are not programmed into hardware on
// real devices either). crossConnects adds MPLS ILM entries.
func (f *FIB) ExportAFT(device string, crossConnects []mpls.CrossConnect) *aft.AFT {
	b := aft.NewBuilder(device)
	var hops []ResolvedHop
	var idx []uint64
	for _, r := range f.rib.Routes() {
		resolved, err := f.resolve(hops, r)
		if err != nil {
			continue
		}
		hops = resolved
		idx = idx[:0]
		for _, h := range hops {
			idx = append(idx, b.AddNextHop(aftHop(h)))
		}
		b.AddIPv4(r.Prefix, b.AddGroup(idx), r.Protocol.String(), r.Metric)
	}
	for _, xc := range crossConnects {
		var hop ResolvedHop
		if xc.NextHop.IsValid() {
			hop = ResolvedHop{IP: xc.NextHop}
			if via, ok := f.rib.Lookup(xc.NextHop); ok && len(via.NextHops) > 0 {
				hop.Interface = via.NextHops[0].Interface
			}
			if xc.OutLabel != 0 {
				hop.Labels = []uint32{xc.OutLabel}
			}
		} else {
			// Tail-end pop with no downstream hop: the inner packet is
			// delivered to the local IP stack.
			hop = ResolvedHop{Receive: true}
		}
		idx := b.AddNextHop(aftHop(hop))
		b.AddLabel(xc.InLabel, b.AddGroup([]uint64{idx}), xc.OutLabel == 0)
	}
	return b.Build()
}

// aftHop converts a resolved hop to its AFT form. The address is rendered
// on the stack and interned, so a repeated address costs no allocation.
func aftHop(h ResolvedHop) aft.NextHop {
	nh := aft.NextHop{
		Interface:    h.Interface,
		PushedLabels: h.Labels,
		Drop:         h.Drop,
		Receive:      h.Receive,
	}
	if h.IP.IsValid() {
		var buf [64]byte
		nh.IPAddress = intern.Bytes(h.IP.AppendTo(buf[:0]))
	}
	return nh
}
