package isis

import (
	"net/netip"
	"slices"
	"strings"
	"time"

	"mfv/internal/obs"
	"mfv/internal/sim"
)

// Default protocol timers and metrics.
const (
	DefaultMetric     = 10
	defaultHello      = 10 * time.Second
	defaultHolding    = 30 * time.Second
	defaultSPFDelay   = 50 * time.Millisecond
	defaultLSPRefresh = 15 * time.Minute
)

// adjState is the P2P three-way handshake state.
type adjState uint8

const (
	adjDown adjState = iota
	adjInit          // heard the neighbor, it has not heard us
	adjUp
)

// String names the adjacency state for trace events.
func (s adjState) String() string {
	switch s {
	case adjInit:
		return "init"
	case adjUp:
		return "up"
	default:
		return "down"
	}
}

// Route is one SPF result installed toward the RIB.
type Route struct {
	Prefix   netip.Prefix
	Metric   uint32
	NextHops []NextHop
}

// NextHop is one ECMP leg of an IS-IS route.
type NextHop struct {
	IP        netip.Addr
	Interface string
}

// InterfaceConfig configures one IS-IS-enabled circuit.
type InterfaceConfig struct {
	Name string
	// Addr is the interface address used as the hello source (and thus the
	// neighbor's next hop).
	Addr netip.Addr
	// Prefixes advertised as IP reachability from this interface.
	Prefixes []netip.Prefix
	// Metric defaults to 10.
	Metric uint32
	// Passive advertises the prefixes without forming adjacencies
	// (loopbacks and edge links).
	Passive bool
}

// Config configures an IS-IS engine.
type Config struct {
	SystemID SystemID
	Hostname string
	Clock    *sim.Simulator
	// OnRoutes delivers the complete post-SPF route set; the receiver
	// replaces all previous IS-IS routes with it.
	OnRoutes func([]Route)
	// HelloInterval, HoldingTime, SPFDelay override protocol defaults when
	// nonzero (tests use short values).
	HelloInterval time.Duration
	HoldingTime   time.Duration
	SPFDelay      time.Duration
}

type circuit struct {
	cfg   InterfaceConfig
	send  func([]byte) // nil while link down
	state adjState
	nbr   SystemID
	nbrIP netip.Addr
	hold  *sim.Event
	hello *sim.Ticker
}

// Engine is one router's IS-IS process.
type Engine struct {
	cfg      Config
	circuits map[string]*circuit
	// ordered lists the circuits by interface name: the one deterministic
	// order for arming hellos, originating, flooding and SPF.
	ordered []*circuit
	// own holds the sorted packed keys (prefixKey) of the IPv4 prefixes
	// configured on our circuits; SPF never installs routes to them.
	own []uint64
	// lsdb maps origin system ID to its most recent LSP.
	lsdb map[SystemID]*LSP
	// origins lists the LSDB's origins as sorted packed keys (sysKey), the
	// node numbering of SPF. The LSDB never shrinks, so the list is rebuilt
	// only when an origin is added (see originOrder).
	origins []uint64
	seq     uint32

	spfScheduled *sim.Event
	// delivered is the last route set handed to OnRoutes; SPF results equal
	// to it are suppressed (see RunSPF).
	delivered    []Route
	hasDelivered bool
	refresh      *sim.Ticker

	// Statistics.
	SPFRuns     uint64
	LSPsFlooded uint64

	// Observability (nil handles are no-ops).
	obs       *obs.Observer
	cSPFRuns  *obs.Counter
	cLSPFlood *obs.Counter
	hSPFNanos *obs.Histogram
}

// New builds an IS-IS engine. Start must be called after interfaces are
// added.
func New(cfg Config) *Engine {
	if cfg.Clock == nil {
		panic("isis: engine needs a clock")
	}
	if cfg.HelloInterval == 0 {
		cfg.HelloInterval = defaultHello
	}
	if cfg.HoldingTime == 0 {
		cfg.HoldingTime = defaultHolding
	}
	if cfg.SPFDelay == 0 {
		cfg.SPFDelay = defaultSPFDelay
	}
	return &Engine{
		cfg:      cfg,
		circuits: map[string]*circuit{},
		lsdb:     map[SystemID]*LSP{},
	}
}

// SystemID returns the engine's system ID.
func (e *Engine) SystemID() SystemID { return e.cfg.SystemID }

// SetObserver wires the engine into the observability layer: adjacency
// transitions become trace events, SPF runs and LSP floods become counters,
// and SPF compute time feeds a wall-clock histogram.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.obs = o
	e.cSPFRuns = o.Counter("spf_runs_total")
	e.cLSPFlood = o.Counter("lsps_flooded_total")
	e.hSPFNanos = o.Histogram("spf_ns")
}

// emitAdjacency traces one circuit's adjacency transition.
func (e *Engine) emitAdjacency(c *circuit, st adjState) {
	if e.obs.Enabled() {
		e.obs.Emit(obs.Event{
			Type:   obs.EvISISAdjacency,
			Device: e.cfg.Hostname,
			Detail: c.cfg.Name + ":" + st.String(),
		})
	}
}

// AddInterface registers a circuit before Start.
func (e *Engine) AddInterface(cfg InterfaceConfig) {
	if cfg.Metric == 0 {
		cfg.Metric = DefaultMetric
	}
	c := &circuit{cfg: cfg}
	i, found := slices.BinarySearchFunc(e.ordered, cfg.Name, func(c *circuit, name string) int {
		return strings.Compare(c.cfg.Name, name)
	})
	if found {
		e.ordered[i] = c
	} else {
		e.ordered = slices.Insert(e.ordered, i, c)
	}
	e.circuits[cfg.Name] = c
	e.own = e.own[:0]
	for _, c := range e.ordered {
		for _, p := range c.cfg.Prefixes {
			if p.Addr().Is4() {
				e.own = append(e.own, prefixKey(p.Masked()))
			}
		}
	}
	slices.Sort(e.own)
	e.own = slices.Compact(e.own)
}

// Start originates the initial LSP and begins hello transmission on all
// circuits whose transport is already attached.
func (e *Engine) Start() {
	e.originate()
	// Hello timers are armed in interface order so same-seed runs
	// interleave identically.
	for _, c := range e.ordered {
		e.startHellos(c)
	}
	e.refresh = e.cfg.Clock.NewTicker(defaultLSPRefresh, func() { e.originate() })
}

// Stop cancels all timers.
func (e *Engine) Stop() {
	for _, c := range e.ordered {
		if c.hello != nil {
			c.hello.Stop()
		}
		if c.hold != nil {
			e.cfg.Clock.Cancel(c.hold)
		}
	}
	if e.refresh != nil {
		e.refresh.Stop()
	}
	if e.spfScheduled != nil {
		e.cfg.Clock.Cancel(e.spfScheduled)
	}
}

// AttachTransport provides the transmit function for a circuit (link up).
func (e *Engine) AttachTransport(name string, send func([]byte)) {
	c, ok := e.circuits[name]
	if !ok {
		return
	}
	c.send = send
	e.startHellos(c)
}

// DetachTransport signals link down: the adjacency drops immediately.
func (e *Engine) DetachTransport(name string) {
	c, ok := e.circuits[name]
	if !ok {
		return
	}
	c.send = nil
	if c.hello != nil {
		c.hello.Stop()
		c.hello = nil
	}
	e.adjacencyDown(c)
}

func (e *Engine) startHellos(c *circuit) {
	if c.send == nil || c.cfg.Passive || c.hello != nil {
		return
	}
	sendHello := func() {
		var seen []SystemID
		if c.state != adjDown {
			seen = []SystemID{c.nbr}
		}
		c.send(EncodeHello(Hello{
			Source:      e.cfg.SystemID,
			SourceIP:    c.cfg.Addr,
			HoldingTime: uint16(e.cfg.HoldingTime / time.Second),
			Seen:        seen,
		}))
	}
	sendHello()
	// Hellos tick on the global interval grid (aligned): a router rebuilt
	// after a crash advertises on the same schedule as its previous
	// incarnation, so neighbor hold-expiry times do not depend on when the
	// rebuild happened.
	c.hello = e.cfg.Clock.NewAlignedTicker(e.cfg.HelloInterval, sendHello)
}

// HandlePDU processes one received PDU on the named circuit.
func (e *Engine) HandlePDU(intf string, data []byte) {
	c, ok := e.circuits[intf]
	if !ok || c.cfg.Passive || c.send == nil {
		// Unknown circuit, passive circuit, or a PDU that was in flight
		// when the link went down: drop it.
		return
	}
	decoded, err := Decode(data)
	if err != nil {
		return // malformed PDUs are dropped, as on real circuits
	}
	switch pdu := decoded.(type) {
	case Hello:
		e.handleHello(c, pdu)
	case LSP:
		e.handleLSP(c, pdu)
	}
}

func (e *Engine) handleHello(c *circuit, h Hello) {
	prev := c.state
	c.nbr = h.Source
	c.nbrIP = h.SourceIP
	// Three-way: we are Up once the neighbor lists us as seen.
	c.state = adjInit
	for _, s := range h.Seen {
		if s == e.cfg.SystemID {
			c.state = adjUp
			break
		}
	}
	// (Re)arm the holding timer.
	if c.hold != nil {
		e.cfg.Clock.Cancel(c.hold)
	}
	hold := time.Duration(h.HoldingTime) * time.Second
	if hold <= 0 {
		hold = e.cfg.HoldingTime
	}
	c.hold = e.cfg.Clock.After(hold, func() { e.adjacencyDown(c) })

	if prev != c.state {
		e.emitAdjacency(c, c.state)
	}
	if prev != c.state && c.send != nil {
		// State changed: answer immediately so the three-way handshake
		// completes in milliseconds instead of waiting for hello ticks.
		c.send(EncodeHello(Hello{
			Source:      e.cfg.SystemID,
			SourceIP:    c.cfg.Addr,
			HoldingTime: uint16(e.cfg.HoldingTime / time.Second),
			Seen:        []SystemID{c.nbr},
		}))
	}
	if prev != adjUp && c.state == adjUp {
		// Adjacency came up: regenerate our LSP and sync the database.
		e.originate()
		for _, lsp := range e.lsdbSorted() {
			c.send(EncodeLSP(*lsp))
			e.LSPsFlooded++
			e.cLSPFlood.Inc()
		}
		e.scheduleSPF()
	} else if prev == adjUp && c.state != adjUp {
		e.originate()
		e.scheduleSPF()
	}
}

func (e *Engine) adjacencyDown(c *circuit) {
	if c.hold != nil {
		e.cfg.Clock.Cancel(c.hold)
		c.hold = nil
	}
	if c.state == adjDown {
		return
	}
	c.state = adjDown
	e.emitAdjacency(c, adjDown)
	e.originate()
	e.scheduleSPF()
}

func (e *Engine) handleLSP(c *circuit, lsp LSP) {
	have, ok := e.lsdb[lsp.Origin]
	if lsp.Origin == e.cfg.SystemID {
		// Someone flooded our own LSP back; if it is newer than ours (e.g.
		// stale copy after restart), bump our sequence past it.
		if ok && lsp.Seq >= have.Seq {
			e.seq = lsp.Seq
			e.originate()
		}
		return
	}
	if ok && have.Seq >= lsp.Seq {
		return // old news
	}
	cp := lsp
	e.lsdb[lsp.Origin] = &cp
	e.floodExcept(&cp, c)
	if ok && lspContentEqual(have, &cp) {
		// Pure sequence-number refresh: the topology the LSP describes did
		// not change, so recomputing SPF would be wasted work — and a
		// periodic refresh wave must not read as routing activity to
		// convergence detection.
		return
	}
	e.scheduleSPF()
}

// lspContentEqual reports whether two LSPs describe the same topology —
// everything but the sequence number.
func lspContentEqual(a, b *LSP) bool {
	if a.Origin != b.Origin || a.Hostname != b.Hostname ||
		len(a.Neighbors) != len(b.Neighbors) || len(a.Prefixes) != len(b.Prefixes) {
		return false
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			return false
		}
	}
	for i := range a.Prefixes {
		if a.Prefixes[i] != b.Prefixes[i] {
			return false
		}
	}
	return true
}

// originate regenerates our own LSP and floods it.
func (e *Engine) originate() {
	e.seq++
	lsp := LSP{
		Origin:   e.cfg.SystemID,
		Seq:      e.seq,
		Hostname: e.cfg.Hostname,
	}
	for _, c := range e.ordered {
		if c.state == adjUp {
			lsp.Neighbors = append(lsp.Neighbors, Neighbor{ID: c.nbr, Metric: c.cfg.Metric})
		}
		for _, p := range c.cfg.Prefixes {
			lsp.Prefixes = append(lsp.Prefixes, PrefixReach{Prefix: p.Masked(), Metric: 0})
		}
	}
	e.lsdb[e.cfg.SystemID] = &lsp
	e.floodExcept(&lsp, nil)
	e.scheduleSPF()
}

func (e *Engine) floodExcept(lsp *LSP, skip *circuit) {
	data := EncodeLSP(*lsp)
	flooded := 0
	for _, c := range e.ordered {
		if c == skip || c.send == nil || c.cfg.Passive || c.state != adjUp {
			continue
		}
		c.send(data)
		e.LSPsFlooded++
		flooded++
	}
	if flooded > 0 {
		e.cLSPFlood.Add(uint64(flooded))
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvLSPFlood, Device: e.cfg.Hostname, Value: int64(flooded)})
		}
	}
}

// lsdbSorted returns the LSDB in origin system-ID order.
func (e *Engine) lsdbSorted() []*LSP {
	origins := e.originOrder()
	out := make([]*LSP, len(origins))
	for i, k := range origins {
		out[i] = e.lsdb[sysIDFromKey(k)]
	}
	return out
}

// originOrder returns the LSDB origins as sorted packed keys. Origins are
// only ever added, so a length mismatch means the list is stale.
func (e *Engine) originOrder() []uint64 {
	if len(e.origins) != len(e.lsdb) {
		e.origins = e.origins[:0]
		for id := range e.lsdb {
			e.origins = append(e.origins, sysKey(id))
		}
		slices.Sort(e.origins)
	}
	return e.origins
}

// LSDB returns a snapshot of the database for CLI-style inspection.
func (e *Engine) LSDB() []LSP {
	out := make([]LSP, 0, len(e.lsdb))
	for _, lsp := range e.lsdbSorted() {
		out = append(out, *lsp)
	}
	return out
}

// Adjacencies returns the circuits with their adjacency state, sorted by
// interface name, for CLI-style inspection.
type Adjacency struct {
	Interface string
	Neighbor  SystemID
	Up        bool
}

// Adjacencies lists non-passive circuits and their state.
func (e *Engine) Adjacencies() []Adjacency {
	var out []Adjacency
	for _, c := range e.ordered {
		if c.cfg.Passive {
			continue
		}
		out = append(out, Adjacency{Interface: c.cfg.Name, Neighbor: c.nbr, Up: c.state == adjUp})
	}
	return out
}

func (e *Engine) scheduleSPF() {
	if e.spfScheduled != nil {
		return
	}
	e.spfScheduled = e.cfg.Clock.After(e.cfg.SPFDelay, func() {
		e.spfScheduled = nil
		e.RunSPF()
	})
}
