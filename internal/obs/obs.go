// Package obs is the observability layer for the model-free verification
// pipeline: a structured trace-event stream, a metrics registry, and
// span-style phase timing.
//
// Trace events are stamped with the simulation's virtual clock, never the
// wall clock, so two runs with the same seed produce byte-identical traces —
// traces are replayable evidence, not logs. Wall-clock durations appear only
// in phase records and histograms (the metrics side), which are reporting
// aids and deliberately excluded from the deterministic trace.
//
// The package is stdlib-only and nil-safe end to end: a nil *Observer (and
// the nil *Counter/*Gauge/*Histogram handles it hands out) is a valid no-op
// sink, so uninstrumented runs pay one nil check per call site and zero
// allocations. Hot paths that would build strings for an event should guard
// with Enabled():
//
//	if o.Enabled() {
//	    o.Emit(obs.Event{Type: obs.EvBGPSession, Device: name, ...})
//	}
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Clock exposes virtual time; satisfied by *sim.Simulator. A nil clock
// stamps events at zero (model backend, pre-simulation phases).
type Clock interface {
	Now() time.Duration
}

// Event types emitted by the instrumented pipeline.
const (
	// EvPodReady: a router pod reached Running (Device=router, Detail=node).
	EvPodReady = "pod_ready"
	// EvStartupDone: every pod is Running; infra startup is complete.
	EvStartupDone = "startup_done"
	// EvLinkUp / EvLinkDown: a virtual link changed admin/wiring state
	// (Detail=canonical link key).
	EvLinkUp   = "link_up"
	EvLinkDown = "link_down"
	// EvBGPSession: a BGP FSM transition (Device, Peer, Detail="old>new").
	EvBGPSession = "bgp_session"
	// EvISISAdjacency: an IS-IS adjacency transition (Device,
	// Detail="intf:state").
	EvISISAdjacency = "isis_adjacency"
	// EvLSPFlood: an LSP was flooded (Device, Value=circuits reached).
	EvLSPFlood = "lsp_flood"
	// EvRouteChurn: a router's dataplane-relevant state settled after a
	// change (Device, Value=RIB version: the number of effective
	// elected-route changes the router's RIB has seen).
	EvRouteChurn = "route_churn"
	// EvCrash: a routing process crashed (Device).
	EvCrash = "bgp_crash"
	// EvConverged: convergence detection declared the dataplane stable
	// (Value=convergence point in ns of virtual time).
	EvConverged = "converged"
	// EvAFTExport: one device's AFT was extracted (Device, Value=entries).
	EvAFTExport = "aft_export"
	// EvSpanStart / EvSpanEnd: a pipeline phase boundary (Detail=phase;
	// EvSpanEnd carries Value=virtual duration in ns).
	EvSpanStart = "span_start"
	EvSpanEnd   = "span_end"
	// EvPodCrash: a router pod died and is being rescheduled (Device=router,
	// Detail=kube node when the crash came from a node failure).
	EvPodCrash = "pod_crash"
	// EvNodeDown / EvNodeUp: a kube worker node failed (Value=evicted pods)
	// or recovered (Device=node).
	EvNodeDown = "node_down"
	EvNodeUp   = "node_up"
	// EvBGPReset: an operator-initiated session reset on a router (Device).
	EvBGPReset = "bgp_reset"
	// EvDegraded: convergence timed out in degraded mode and partial results
	// were accepted (Detail=comma-joined stragglers, Value=count).
	EvDegraded = "converge_degraded"
	// EvFaultInject / EvFaultClear: the chaos engine injected or cleared a
	// fault (Detail=fault description).
	EvFaultInject = "fault_inject"
	EvFaultClear  = "fault_clear"
	// EvChaosVerdict: per-fault differential verification verdict
	// (Detail=fault, Value=permanently lost flows).
	EvChaosVerdict = "chaos_verdict"
	// EvQuarantine: a router's control plane was quarantined after hostile
	// input or an escaped handler panic (Device=router, Detail=reason).
	EvQuarantine = "router_quarantine"
	// EvSweepCandidate: the sweep engine applied one failure candidate
	// (Detail=failure description, Value=dirty-router count).
	EvSweepCandidate = "sweep_candidate"
	// EvSweepVerdict: one ranked sweep result (Detail=failure description,
	// Value=flows lost). Emitted in rank order after the merge.
	EvSweepVerdict = "sweep_verdict"
)

// Event is one trace record. At is virtual time; the remaining fields are a
// fixed, flat schema so events serialize deterministically and call sites
// never allocate a field map.
//
// Wall is the real time the event was published to live subscribers. It is
// excluded from JSON so the retained trace stays byte-identical across
// same-seed runs, and it is stamped only when at least one subscriber is
// attached — the deterministic-trace path never reads the wall clock.
type Event struct {
	At     time.Duration `json:"at_ns"`
	Type   string        `json:"type"`
	Device string        `json:"device,omitempty"`
	Peer   string        `json:"peer,omitempty"`
	Detail string        `json:"detail,omitempty"`
	Value  int64         `json:"value,omitempty"`
	Wall   time.Time     `json:"-"`
}

// PhaseRecord is one completed pipeline phase with virtual and wall timing.
type PhaseRecord struct {
	Name string
	// VStart/VEnd bound the phase in virtual time.
	VStart, VEnd time.Duration
	// Wall is the real time the phase took (reporting only; never traced).
	Wall time.Duration
}

// VDur returns the phase's virtual duration.
func (p PhaseRecord) VDur() time.Duration { return p.VEnd - p.VStart }

// Observer bundles the trace buffer, metrics registry, phase records, and
// the live event bus for one pipeline run. A nil *Observer is a valid no-op
// sink.
type Observer struct {
	mu      sync.Mutex
	clock   Clock
	events  []Event
	phases  []PhaseRecord
	reg     Registry
	noTrace bool

	// Live event bus (see bus.go). nSubs mirrors len(subs) so Emit can
	// skip the fan-out path with one atomic load.
	subMu    sync.Mutex
	subs     map[int]*Subscription
	nextSub  int
	nSubs    atomic.Int32
	cDropped *Counter
}

// New returns an observer collecting trace events, metrics, and phases. Bind
// the virtual clock with SetClock once the simulator exists.
func New() *Observer { return &Observer{} }

// NewMetricsOnly returns an observer that records metrics and phases but
// discards trace events — the right sink for large runs where the event
// stream would dominate memory.
func NewMetricsOnly() *Observer { return &Observer{noTrace: true} }

// SetClock binds the virtual clock used to stamp events. Events emitted
// before the clock is bound are stamped at zero.
func (o *Observer) SetClock(c Clock) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.clock = c
	o.mu.Unlock()
}

// Enabled reports whether anyone consumes trace events — the retained
// trace buffer or at least one live subscriber. Call sites use it to skip
// building event strings on the disabled path, so a metrics-only observer
// starts producing events the moment a subscriber attaches.
func (o *Observer) Enabled() bool {
	return o != nil && (!o.noTrace || o.nSubs.Load() > 0)
}

// Emit appends a trace event and fans it out to live subscribers. When e.At
// is zero it is stamped from the bound clock; a nonzero At is kept verbatim
// (for events describing a moment other than "now", e.g. synthesized span
// boundaries).
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	live := o.nSubs.Load() > 0
	if o.noTrace && !live {
		return
	}
	o.mu.Lock()
	if e.At == 0 && o.clock != nil {
		e.At = o.clock.Now()
	}
	if !o.noTrace {
		o.events = append(o.events, e)
	}
	o.mu.Unlock()
	if live {
		e.Wall = time.Now()
		o.publish(e)
	}
}

// Events returns a copy of the collected trace.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Event(nil), o.events...)
}

// WriteJSONL serializes the trace as one JSON object per line, in emission
// order. The output is byte-identical across same-seed runs.
func (o *Observer) WriteJSONL(w io.Writer) error {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	events := append([]Event(nil), o.events...)
	o.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Metrics exposes the observer's registry. Returns nil on a nil observer,
// and every registry method on a nil registry is itself a no-op.
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return &o.reg
}

// Counter returns the named counter handle (nil, a no-op, on a nil
// observer). Optional labels are alternating key/value pairs. Hot paths
// should resolve handles once and keep them.
func (o *Observer) Counter(name string, labels ...string) *Counter {
	return o.Metrics().Counter(name, labels...)
}

// Gauge returns the named gauge handle.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	return o.Metrics().Gauge(name, labels...)
}

// Histogram returns the named histogram handle.
func (o *Observer) Histogram(name string, labels ...string) *Histogram {
	return o.Metrics().Histogram(name, labels...)
}

// PhaseSpan is an in-flight pipeline phase opened by StartPhase.
type PhaseSpan struct {
	o      *Observer
	name   string
	vstart time.Duration
	wall   time.Time
}

// StartPhase opens a phase at the current virtual and wall time and emits
// its span_start event. End completes it.
func (o *Observer) StartPhase(name string) *PhaseSpan {
	if o == nil {
		return nil
	}
	s := &PhaseSpan{o: o, name: name, wall: time.Now()}
	o.mu.Lock()
	if o.clock != nil {
		s.vstart = o.clock.Now()
	}
	o.mu.Unlock()
	o.Emit(Event{At: s.vstart, Type: EvSpanStart, Detail: name})
	return s
}

// End closes the phase, records it, and emits its span_end event.
func (s *PhaseSpan) End() {
	if s == nil {
		return
	}
	o := s.o
	o.mu.Lock()
	vend := s.vstart
	if o.clock != nil {
		vend = o.clock.Now()
	}
	o.phases = append(o.phases, PhaseRecord{
		Name: s.name, VStart: s.vstart, VEnd: vend, Wall: time.Since(s.wall),
	})
	o.mu.Unlock()
	o.Emit(Event{At: vend, Type: EvSpanEnd, Detail: s.name, Value: int64(vend - s.vstart)})
}

// RecordPhase records a phase whose boundaries were observed externally
// (e.g. boot/converge, which share one simulation run) and emits its span
// events at the correct virtual instants.
func (o *Observer) RecordPhase(name string, vstart, vend, wall time.Duration) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.phases = append(o.phases, PhaseRecord{Name: name, VStart: vstart, VEnd: vend, Wall: wall})
	o.mu.Unlock()
	o.Emit(Event{At: vstart, Type: EvSpanStart, Detail: name})
	o.Emit(Event{At: vend, Type: EvSpanEnd, Detail: name, Value: int64(vend - vstart)})
}

// Phases returns the completed phase records in completion order.
func (o *Observer) Phases() []PhaseRecord {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]PhaseRecord(nil), o.phases...)
}

// PhaseTable renders the phase records as an aligned text table.
func (o *Observer) PhaseTable() string {
	phases := o.Phases()
	if len(phases) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %12s\n", "phase", "virtual-start", "virtual-end", "virtual-dur", "wall")
	for _, p := range phases {
		fmt.Fprintf(&b, "%-10s %14v %14v %14v %12v\n",
			p.Name, p.VStart.Round(time.Millisecond), p.VEnd.Round(time.Millisecond),
			p.VDur().Round(time.Millisecond), p.Wall.Round(10*time.Microsecond))
	}
	return b.String()
}

// MetricsTable renders every metric as an aligned, name-sorted text table:
// counters and gauges one per line, histograms with count/p50/p99/max.
func (o *Observer) MetricsTable() string {
	if o == nil {
		return ""
	}
	snap := o.Metrics().Snapshot()
	if len(snap) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %s\n", "metric", "value")
	for _, m := range snap {
		fmt.Fprintf(&b, "%-36s %s\n", m.FullName(), m.Render())
	}
	return b.String()
}
