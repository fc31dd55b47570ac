package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer's public function, recorded by the
// benchmark around the call. Allocation figures come from runtime/metrics
// counters, which are read without stopping the world; they include
// whatever other goroutines allocated during the span (with one caller, that
// is the call's own worker pool).
type span struct {
	Op           int    `json:"op"`
	ID           int    `json:"id"`
	Parent       int    `json:"parent"` // 0 for an op's root span
	Name         string `json:"name"`
	StartNS      int64  `json:"start_ns"` // since the tracer was created
	EndNS        int64  `json:"end_ns"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans and per-op counters in memory until the run ends. A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	op     int
	stack  []int
	spans  []span
	counts map[string]float64
	// overhead is the traced ops' median wall time over the untraced ops'.
	overhead float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

var heapSampleNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"}

func heapAllocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: heapSampleNames[0]}, {Name: heapSampleNames[1]}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// beginOp starts the next op and opens its root span.
func (t *tracer) beginOp() func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	t.op++
	t.stack = t.stack[:0]
	t.mu.Unlock()
	return t.begin("op")
}

// begin opens a span named after the public function about to be called,
// nested under the innermost open span, and returns the function that
// closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	b0, o0 := heapAllocs()
	t.mu.Lock()
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, StartNS: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return func() {
		b1, o1 := heapAllocs()
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		defer t.mu.Unlock()
		s := &t.spans[id-1]
		s.EndNS, s.AllocBytes, s.AllocObjects = end, b1-b0, o1-o0
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i] == id {
				t.stack = append(t.stack[:i], t.stack[i+1:]...)
				break
			}
		}
	}
}

// add accumulates a counter reading taken during the current op.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// perOp sums field over the spans named name within each op, keyed by op;
// ops that made no such call are absent.
func (t *tracer) perOp(name string, field func(span) float64, byOp map[int]float64) {
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += field(s)
		}
	}
}

// selfPerOp returns, per op, the summed self time of the spans named name.
func (t *tracer) selfPerOp(name string) []float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byOp := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += float64(selfTime(s, children[s.ID]))
		}
	}
	return opValues(byOp)
}

func opValues(byOp map[int]float64) []float64 {
	ops := make([]int, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = byOp[op]
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children (calls made from several goroutines)
// count once, and any part of a child outside the parent is ignored.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// writeSpans writes one JSON object per span to path.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
