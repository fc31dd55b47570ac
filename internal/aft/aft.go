// Package aft models the Abstract Forwarding Table in the shape of the
// OpenConfig AFT data model (network-instance afts): IPv4 unicast entries
// point at next-hop groups, which reference next hops; MPLS label entries
// share the same next-hop-group indirection. The verification pipeline
// consumes only this representation, pulled over the gNMI-like management
// interface — the vendor-agnostic extraction boundary from the paper.
package aft

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"slices"
	"strconv"
	"strings"

	"mfv/internal/diag"
	"mfv/internal/intern"
)

// NextHop is one leaf next hop.
type NextHop struct {
	// Index is the device-scoped next-hop id.
	Index uint64 `json:"index"`
	// IPAddress is the adjacent hop address; empty for drop/receive hops.
	IPAddress string `json:"ip-address,omitempty"`
	// Interface is the egress interface.
	Interface string `json:"interface,omitempty"`
	// PushedLabels is the MPLS label stack pushed on egress, outermost
	// first.
	PushedLabels []uint32 `json:"pushed-mpls-label-stack,omitempty"`
	// Drop marks a discard next hop.
	Drop bool `json:"drop,omitempty"`
	// Receive marks delivery to the local control plane (loopbacks and
	// local interface addresses).
	Receive bool `json:"receive,omitempty"`
}

// NextHopGroup is an ECMP group.
type NextHopGroup struct {
	ID       uint64   `json:"id"`
	NextHops []uint64 `json:"next-hops"`
}

// IPv4Entry maps a prefix to a next-hop group.
type IPv4Entry struct {
	Prefix       string `json:"prefix"`
	NextHopGroup uint64 `json:"next-hop-group"`
	// Origin records the installing protocol for inspection ("isis",
	// "ebgp", "connected", …).
	Origin string `json:"origin-protocol,omitempty"`
	// Metric is the winning route's metric, for inspection only.
	Metric uint32 `json:"metric,omitempty"`
}

// LabelEntry maps an incoming MPLS label to a next-hop group.
type LabelEntry struct {
	Label        uint32 `json:"label"`
	NextHopGroup uint64 `json:"next-hop-group"`
	// Pop marks a penultimate/tail pop entry.
	Pop bool `json:"pop,omitempty"`
}

// AFT is one device's abstract forwarding table.
type AFT struct {
	// Device is the hostname the table was extracted from.
	Device        string         `json:"device"`
	IPv4Entries   []IPv4Entry    `json:"ipv4-unicast"`
	LabelEntries  []LabelEntry   `json:"mpls,omitempty"`
	NextHopGroups []NextHopGroup `json:"next-hop-groups"`
	NextHops      []NextHop      `json:"next-hops"`
}

// Builder incrementally assembles an AFT, deduplicating next hops and
// groups.
type Builder struct {
	aft      *AFT
	nhIndex  map[hopKey]uint64
	nhgIndex map[string]uint64
	// sorted and buf are scratch space reused across calls, so a lookup
	// that hits an existing hop or group allocates nothing.
	sorted []uint64
	buf    []byte
}

// hopKey is a next hop's identity for deduplication: every field but Index,
// with the label stack packed at a fixed four bytes per label, so distinct
// stacks never share a key and nil and empty stacks do.
type hopKey struct {
	ip, intf      string
	labels        string
	drop, receive bool
}

// NewBuilder starts an AFT for the named device.
func NewBuilder(device string) *Builder {
	return &Builder{
		aft:      &AFT{Device: device},
		nhIndex:  map[hopKey]uint64{},
		nhgIndex: map[string]uint64{},
	}
}

// AddNextHop interns a next hop and returns its index.
func (b *Builder) AddNextHop(nh NextHop) uint64 {
	b.buf = b.buf[:0]
	for _, l := range nh.PushedLabels {
		b.buf = binary.BigEndian.AppendUint32(b.buf, l)
	}
	if idx, ok := b.nhIndex[hopKey{nh.IPAddress, nh.Interface, string(b.buf), nh.Drop, nh.Receive}]; ok {
		return idx
	}
	// The same adjacent-hop address and interface name recur across every
	// router on a segment; share one canonical copy across all 10k AFTs.
	nh.IPAddress = intern.String(nh.IPAddress)
	nh.Interface = intern.String(nh.Interface)
	nh.Index = uint64(len(b.aft.NextHops) + 1)
	b.aft.NextHops = append(b.aft.NextHops, nh)
	b.nhIndex[hopKey{nh.IPAddress, nh.Interface, string(b.buf), nh.Drop, nh.Receive}] = nh.Index
	return nh.Index
}

// AddGroup interns an ECMP group over next-hop indices and returns its id.
// Groups are keyed by their sorted indices in uvarint encoding, which is
// prefix-free, so distinct index lists never share a key.
func (b *Builder) AddGroup(nhIdx []uint64) uint64 {
	b.sorted = append(b.sorted[:0], nhIdx...)
	slices.Sort(b.sorted)
	b.buf = b.buf[:0]
	for _, idx := range b.sorted {
		b.buf = binary.AppendUvarint(b.buf, idx)
	}
	if id, ok := b.nhgIndex[string(b.buf)]; ok {
		return id
	}
	id := uint64(len(b.aft.NextHopGroups) + 1)
	b.aft.NextHopGroups = append(b.aft.NextHopGroups, NextHopGroup{ID: id, NextHops: append([]uint64{}, b.sorted...)})
	b.nhgIndex[string(b.buf)] = id
	return id
}

// AddIPv4 appends an IPv4 entry.
func (b *Builder) AddIPv4(prefix netip.Prefix, nhg uint64, origin string, metric uint32) {
	var buf [64]byte
	b.aft.IPv4Entries = append(b.aft.IPv4Entries, IPv4Entry{
		Prefix:       intern.Bytes(prefix.AppendTo(buf[:0])),
		NextHopGroup: nhg,
		Origin:       intern.String(origin),
		Metric:       metric,
	})
}

// AddLabel appends an MPLS entry.
func (b *Builder) AddLabel(label uint32, nhg uint64, pop bool) {
	b.aft.LabelEntries = append(b.aft.LabelEntries, LabelEntry{Label: label, NextHopGroup: nhg, Pop: pop})
}

// Build finalizes the AFT with entries in canonical order. Slices are
// copied down to exact capacity: built AFTs are retained for the life of a
// verification run (10k of them at the scale tier), and append's growth
// slack would otherwise pin up to 2x the needed memory.
func (b *Builder) Build() *AFT {
	slices.SortFunc(b.aft.IPv4Entries, func(x, y IPv4Entry) int { return strings.Compare(x.Prefix, y.Prefix) })
	slices.SortFunc(b.aft.LabelEntries, func(x, y LabelEntry) int { return cmp.Compare(x.Label, y.Label) })
	b.aft.IPv4Entries = trim(b.aft.IPv4Entries)
	b.aft.LabelEntries = trim(b.aft.LabelEntries)
	b.aft.NextHopGroups = trim(b.aft.NextHopGroups)
	b.aft.NextHops = trim(b.aft.NextHops)
	return b.aft
}

// trim returns s backed by an exact-capacity array, freeing append slack.
func trim[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Marshal encodes the AFT as JSON (the gNMI payload format).
func (a *AFT) Marshal() ([]byte, error) { return json.Marshal(a) }

// Unmarshal decodes an AFT from JSON. Failures — malformed JSON or an AFT
// that fails Validate — come back as *diag.Error so ingestion layers can
// attribute them to a device and contain the blast radius.
func Unmarshal(data []byte) (*AFT, error) {
	var a AFT
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, diag.Wrap(err, diag.SevError, "aft", "")
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Re-canonicalize shared strings: every device's gNMI payload spells the
	// same prefixes and adjacent addresses, and json.Unmarshal allocated a
	// private copy of each.
	for i := range a.IPv4Entries {
		a.IPv4Entries[i].Prefix = intern.String(a.IPv4Entries[i].Prefix)
		a.IPv4Entries[i].Origin = intern.String(a.IPv4Entries[i].Origin)
	}
	for i := range a.NextHops {
		a.NextHops[i].IPAddress = intern.String(a.NextHops[i].IPAddress)
		a.NextHops[i].Interface = intern.String(a.NextHops[i].Interface)
	}
	return &a, nil
}

// Validate checks referential integrity — every entry references an existing
// group, every group references existing next hops — and that every prefix
// and next-hop address is well-formed IPv4. The address checks are the
// ingestion screen for the verification tries, which only model IPv4: a
// hostile or corrupted AFT is rejected here with a structured error instead
// of reaching a forwarding structure. Errors are *diag.Error with source
// "aft" and the device name filled in.
func (a *AFT) Validate() error {
	verr := func(format string, args ...any) error {
		return diag.Newf(diag.SevError, "aft", a.Device, format, args...)
	}
	nhs := map[uint64]bool{}
	for _, nh := range a.NextHops {
		if nhs[nh.Index] {
			return verr("duplicate next-hop index %d", nh.Index)
		}
		nhs[nh.Index] = true
		if nh.IPAddress != "" {
			ip, err := netip.ParseAddr(nh.IPAddress)
			if err != nil {
				return verr("next hop %d: bad address %q", nh.Index, nh.IPAddress)
			}
			if !ip.Is4() && !ip.Is4In6() {
				return verr("next hop %d: non-IPv4 address %q", nh.Index, nh.IPAddress)
			}
		}
	}
	groups := map[uint64]bool{}
	for _, g := range a.NextHopGroups {
		if groups[g.ID] {
			return verr("duplicate group id %d", g.ID)
		}
		groups[g.ID] = true
		if len(g.NextHops) == 0 {
			return verr("group %d has no next hops", g.ID)
		}
		for _, idx := range g.NextHops {
			if !nhs[idx] {
				return verr("group %d references missing next hop %d", g.ID, idx)
			}
		}
	}
	for _, e := range a.IPv4Entries {
		p, err := netip.ParsePrefix(e.Prefix)
		if err != nil {
			return verr("bad prefix %q", e.Prefix)
		}
		if !p.Addr().Is4() && !p.Addr().Is4In6() {
			return verr("non-IPv4 prefix %q in ipv4-unicast", e.Prefix)
		}
		if !groups[e.NextHopGroup] {
			return verr("entry %s references missing group %d", e.Prefix, e.NextHopGroup)
		}
	}
	for _, e := range a.LabelEntries {
		if !groups[e.NextHopGroup] {
			return verr("label %d references missing group %d", e.Label, e.NextHopGroup)
		}
	}
	return nil
}

// Group returns the group by id. Build numbers groups densely from 1, so
// the group at position id-1 is checked first; ingested tables need not be
// dense and fall back to a scan.
func (a *AFT) Group(id uint64) (NextHopGroup, bool) {
	if i := id - 1; i < uint64(len(a.NextHopGroups)) && a.NextHopGroups[i].ID == id {
		return a.NextHopGroups[i], true
	}
	for _, g := range a.NextHopGroups {
		if g.ID == id {
			return g, true
		}
	}
	return NextHopGroup{}, false
}

// NextHop returns the next hop by index, checking position idx-1 first like
// Group.
func (a *AFT) NextHop(idx uint64) (NextHop, bool) {
	if i := idx - 1; i < uint64(len(a.NextHops)) && a.NextHops[i].Index == idx {
		return a.NextHops[i], true
	}
	for _, nh := range a.NextHops {
		if nh.Index == idx {
			return nh, true
		}
	}
	return NextHop{}, false
}

// GroupHops resolves a group id to its next hops.
func (a *AFT) GroupHops(id uint64) []NextHop {
	g, ok := a.Group(id)
	if !ok {
		return nil
	}
	out := make([]NextHop, 0, len(g.NextHops))
	for _, idx := range g.NextHops {
		if nh, ok := a.NextHop(idx); ok {
			out = append(out, nh)
		}
	}
	return out
}

// Fingerprint returns a deterministic digest of forwarding-relevant state,
// used by convergence detection: two AFTs with equal fingerprints forward
// identically. The digest is FNV-1a over one line per entry: the prefix (or
// "L" and the label) followed by "|ip|interface|[labels]|drop|receive" for
// each of its next hops.
func (a *AFT) Fingerprint() string {
	h := uint64(fnvOffset)
	var line []byte
	for _, e := range a.IPv4Entries {
		line = append(line[:0], e.Prefix...)
		line = a.appendGroup(line, e.NextHopGroup)
		h = fnv64(h, line)
	}
	for _, e := range a.LabelEntries {
		line = append(line[:0], 'L')
		line = strconv.AppendUint(line, uint64(e.Label), 10)
		line = a.appendGroup(line, e.NextHopGroup)
		h = fnv64(h, line)
	}
	return strconv.FormatUint(h, 16)
}

// appendGroup appends the fingerprint encoding of group id's next hops and
// the line's closing newline.
func (a *AFT) appendGroup(b []byte, id uint64) []byte {
	if g, ok := a.Group(id); ok {
		for _, idx := range g.NextHops {
			nh, ok := a.NextHop(idx)
			if !ok {
				continue
			}
			b = append(b, '|')
			b = append(b, nh.IPAddress...)
			b = append(b, '|')
			b = append(b, nh.Interface...)
			b = append(b, '|', '[')
			for i, l := range nh.PushedLabels {
				if i > 0 {
					b = append(b, ' ')
				}
				b = strconv.AppendUint(b, uint64(l), 10)
			}
			b = append(b, ']', '|')
			b = strconv.AppendBool(b, nh.Drop)
			b = append(b, '|')
			b = strconv.AppendBool(b, nh.Receive)
		}
	}
	return append(b, '\n')
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv64 folds b into the running FNV-1a hash h.
func fnv64(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Equal reports whether two AFTs forward identically.
func (a *AFT) Equal(o *AFT) bool {
	if a == nil || o == nil {
		return a == o
	}
	return a.Fingerprint() == o.Fingerprint()
}
