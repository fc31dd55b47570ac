package main

import (
	"fmt"
	"net/netip"
	"regexp"

	"mfv"
)

// The oracles here read only the topology description: adjacency from its
// link list and loopbacks from the configuration text. None of them calls
// the emulator, the AFT renderer or the verifier they judge.

// components labels every node of topo with the index of its connected
// component once the links whose indices are in down are removed.
func components(topo *mfv.Topology, down map[int]bool) map[string]int {
	adj := make(map[string][]string, len(topo.Nodes))
	for i, l := range topo.Links {
		if down[i] {
			continue
		}
		adj[l.A.Node] = append(adj[l.A.Node], l.Z.Node)
		adj[l.Z.Node] = append(adj[l.Z.Node], l.A.Node)
	}
	comp := make(map[string]int, len(topo.Nodes))
	for c, n := range topo.Nodes {
		if _, seen := comp[n.Name]; seen {
			continue
		}
		comp[n.Name] = c
		queue := []string{n.Name}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if _, seen := comp[next]; !seen {
					comp[next] = c
					queue = append(queue, next)
				}
			}
		}
	}
	return comp
}

// countComponents is the number of distinct labels in a components map.
func countComponents(comp map[string]int) int {
	seen := map[int]bool{}
	for _, c := range comp {
		seen[c] = true
	}
	return len(seen)
}

// bridges returns the indices of the links whose removal alone splits the
// topology into more connected components.
func bridges(topo *mfv.Topology) map[int]bool {
	base := countComponents(components(topo, nil))
	out := map[int]bool{}
	for i := range topo.Links {
		if countComponents(components(topo, map[int]bool{i: true})) > base {
			out[i] = true
		}
	}
	return out
}

// linkIndex maps both endpoints of every link, as "node:interface", to the
// link's index in topo.Links.
func linkIndex(topo *mfv.Topology) map[string]int {
	idx := make(map[string]int, 2*len(topo.Links))
	for i, l := range topo.Links {
		idx[l.A.String()] = i
		idx[l.Z.String()] = i
	}
	return idx
}

// loopbackRE finds the first /32 address configured under Loopback0 in both
// dialects: EOS ("interface Loopback0 / ip address A/32") and the
// Junos-like hierarchy ("Loopback0 { unit 0 { ... address A/32; } }").
var loopbackRE = regexp.MustCompile(`Loopback0\b[^/]*?(\d+\.\d+\.\d+\.\d+)/32`)

// loopbacks parses every node's Loopback0 address from its configuration.
func loopbacks(topo *mfv.Topology) (map[string]netip.Addr, error) {
	out := make(map[string]netip.Addr, len(topo.Nodes))
	for _, n := range topo.Nodes {
		m := loopbackRE.FindStringSubmatch(n.Config)
		if m == nil {
			return nil, fmt.Errorf("node %s: no Loopback0 /32 in its configuration", n.Name)
		}
		a, err := netip.ParseAddr(m[1])
		if err != nil {
			return nil, fmt.Errorf("node %s: loopback %q: %w", n.Name, m[1], err)
		}
		out[n.Name] = a
	}
	return out, nil
}

// checkLoopbackFlows compares the verifier's answer for every (router,
// loopback) flow with connectivity of the topology minus the downed links:
// a loopback is reachable exactly when its owner lies in the source's
// component. reachable is the verifier under test.
func checkLoopbackFlows(topo *mfv.Topology, lo map[string]netip.Addr, down map[int]bool, reachable func(src string, dst netip.Addr) bool) error {
	comp := components(topo, down)
	for _, src := range topo.Nodes {
		for _, dst := range topo.Nodes {
			want := comp[src.Name] == comp[dst.Name]
			if got := reachable(src.Name, lo[dst.Name]); got != want {
				return fmt.Errorf("loopback flow %s -> %s (%v): verifier says reachable=%v, topology says %v",
					src.Name, dst.Name, lo[dst.Name], got, want)
			}
		}
	}
	return nil
}
