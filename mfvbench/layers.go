package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// metricDef is one reported metric. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run. Every workload reports all
// of them, so each is defined over the workload's own op (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"op_ref.p50", "ref", "lower"},
	{"op_cpu_ref.p50", "ref", "lower"},
}

// layerMetric is one per-layer metric of a traced run and how it is derived
// from the tracer's spans and counters.
type layerMetric struct {
	metricDef
	value func(t *tracer) float64
}

// Span names: the public function the benchmark called, as written in Go.
const (
	spanNew        = "kne.New"
	spanConverge   = "kne.Emulator.RunUntilConverged"
	spanRender     = "kne.Emulator.AFTs"
	spanBuild      = "verify.NewNetwork"
	spanDiff       = "verify.Differential"
	spanAllPairs   = "verify.Network.AllPairs"
	spanLoops      = "verify.Network.DetectLoops"
	spanBlackHoles = "verify.Network.DetectBlackHoles"
	spanCapture    = "mfv.CaptureSnapshot"
	spanSave       = "mfv.SaveSnapshot"
	spanLoad       = "mfv.LoadSnapshot"
	spanRestore    = "mfv.RunFromSnapshot"
	spanSweep      = "mfv.RunSweep"
	spanReplicas   = "sweep.Options.BuildReplicas"
)

var querySpans = []string{spanDiff, spanAllPairs, spanLoops, spanBlackHoles}

func durMS(s span) float64      { return float64(s.dur()) / 1e6 }
func allocMB(s span) float64    { return float64(s.AllocBytes) / 1e6 }
func allocCount(s span) float64 { return float64(s.AllocObjects) }

// spanMedian is the median over traced ops of field summed across the
// spans with the given names in that op; 0 when no op made such a call.
func spanMedian(field func(span) float64, names ...string) func(*tracer) float64 {
	return func(t *tracer) float64 {
		byOp := map[int]float64{}
		for _, name := range names {
			t.perOp(name, field, byOp)
		}
		return median(opValues(byOp))
	}
}

// selfMedian is the median over traced ops of the named span's self time.
func selfMedian(name string) func(*tracer) float64 {
	return func(t *tracer) float64 { return median(t.selfPerOp(name)) / 1e6 }
}

// perOpMean is a counter's total divided by the number of traced ops.
func perOpMean(counter string) func(*tracer) float64 {
	return func(t *tracer) float64 {
		if t.op == 0 {
			return 0
		}
		return t.counts[counter] / float64(t.op)
	}
}

// ratio divides two counter totals; 0 when the denominator is.
func ratio(num, den string) func(*tracer) float64 {
	return func(t *tracer) float64 {
		if t.counts[den] == 0 {
			return 0
		}
		return t.counts[num] / t.counts[den]
	}
}

// perLayer lists the metrics of a traced run. A layer the workload does not
// call reads 0. README.md names the end-to-end figure each should move.
var perLayer = []layerMetric{
	{metricDef{"kne.new_ms", "ms", "lower"}, spanMedian(durMS, spanNew)},
	{metricDef{"kne.converge_ms", "ms", "lower"}, spanMedian(durMS, spanConverge)},
	{metricDef{"kne.converge_alloc_mb", "MB", "lower"}, spanMedian(allocMB, spanConverge)},
	{metricDef{"kne.converge_allocs", "count", "lower"}, spanMedian(allocCount, spanConverge)},
	{metricDef{"sim.events", "count", "lower"}, perOpMean("sim.executed")},
	{metricDef{"sim.canceled_ratio", "ratio", "lower"}, ratio("sim.canceled", "sim.scheduled")},
	{metricDef{"isis.spf_runs", "count", "lower"}, perOpMean("isis.spf_runs")},
	{metricDef{"isis.spf_ms", "ms", "lower"}, perOpMean("isis.spf_ms")},
	{metricDef{"bgp.updates", "count", "lower"}, perOpMean("bgp.updates")},
	{metricDef{"bgp.prefixes_in", "count", "lower"}, perOpMean("bgp.prefixes_in")},
	{metricDef{"aft.render_ms", "ms", "lower"}, spanMedian(durMS, spanRender)},
	{metricDef{"aft.render_alloc_mb", "MB", "lower"}, spanMedian(allocMB, spanRender)},
	{metricDef{"aft.render_allocs", "count", "lower"}, spanMedian(allocCount, spanRender)},
	{metricDef{"aft.entries", "count", "lower"}, perOpMean("aft.entries")},
	{metricDef{"verify.build_ms", "ms", "lower"}, spanMedian(durMS, spanBuild)},
	{metricDef{"verify.build_alloc_mb", "MB", "lower"}, spanMedian(allocMB, spanBuild)},
	{metricDef{"verify.ecs", "count", "lower"}, perOpMean("verify.ecs")},
	{metricDef{"verify.differential_ms", "ms", "lower"}, spanMedian(durMS, spanDiff)},
	{metricDef{"verify.allpairs_ms", "ms", "lower"}, spanMedian(durMS, spanAllPairs)},
	{metricDef{"verify.loops_ms", "ms", "lower"}, spanMedian(durMS, spanLoops)},
	{metricDef{"verify.blackholes_ms", "ms", "lower"}, spanMedian(durMS, spanBlackHoles)},
	{metricDef{"verify.query_alloc_mb", "MB", "lower"}, spanMedian(allocMB, querySpans...)},
	{metricDef{"verify.memo_hit_ratio", "ratio", "higher"}, ratio("verify.memo_hits", "verify.memo_lookups")},
	{metricDef{"store.capture_ms", "ms", "lower"}, spanMedian(durMS, spanCapture)},
	{metricDef{"store.save_ms", "ms", "lower"}, spanMedian(durMS, spanSave)},
	{metricDef{"store.snapshot_bytes", "bytes", "lower"}, perOpMean("store.snapshot_bytes")},
	{metricDef{"store.load_ms", "ms", "lower"}, spanMedian(durMS, spanLoad)},
	{metricDef{"store.load_alloc_mb", "MB", "lower"}, spanMedian(allocMB, spanLoad)},
	{metricDef{"store.restore_ms", "ms", "lower"}, spanMedian(durMS, spanRestore)},
	{metricDef{"store.journal_bytes", "bytes", "lower"}, perOpMean("store.journal_bytes")},
	{metricDef{"sweep.replica_build_ms", "ms", "lower"}, spanMedian(durMS, spanReplicas)},
	{metricDef{"sweep.loop_ms", "ms", "lower"}, selfMedian(spanSweep)},
	{metricDef{"sweep.applied", "count", "lower"}, perOpMean("sweep.applied")},
	{metricDef{"sweep.verified_ratio", "ratio", "higher"}, ratio("sweep.verified", "sweep.applied")},
	{metricDef{"sweep.sim_events_per_candidate", "count", "lower"}, ratio("sim.executed", "sweep.applied")},
	{metricDef{"sweep.spf_runs_per_candidate", "count", "lower"}, ratio("isis.spf_runs", "sweep.applied")},
	{metricDef{"sweep.lane_restarts", "count", "lower"}, perOpMean("sweep.lane_restarts")},
	{metricDef{"sweep.retried", "count", "lower"}, perOpMean("sweep.retried")},
	{metricDef{"runtime.gc_cpu_s", "s", "lower"}, perOpMean("runtime.gc_cpu_s")},
	{metricDef{"runtime.gc_cycles", "count", "lower"}, perOpMean("runtime.gc_cycles")},
	{metricDef{"runtime.alloc_mb", "MB", "lower"}, perOpMean("runtime.alloc_mb")},
	{metricDef{"runtime.cpu_util", "ratio", "higher"}, ratio("runtime.cpu_s", "runtime.cpu_avail_s")},
	{metricDef{"bench.trace_overhead_ratio", "ratio", "lower"}, func(t *tracer) float64 { return t.overhead }},
}

// runtimeSample is the process-wide cost counters read around a traced op.
type runtimeSample struct {
	wall                 time.Time
	cpu, gcCPU           float64 // seconds
	gcCycles, allocBytes uint64
}

var runtimeSampleNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		wall:       time.Now(),
		cpu:        processCPU().Seconds(),
		gcCPU:      s[0].Value.Float64(),
		gcCycles:   s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
	}
}

// addRuntime records the cost between two samples as the current op's.
func (t *tracer) addRuntime(a, b runtimeSample, procs int) {
	t.add("runtime.gc_cpu_s", b.gcCPU-a.gcCPU)
	t.add("runtime.gc_cycles", float64(b.gcCycles-a.gcCycles))
	t.add("runtime.alloc_mb", float64(b.allocBytes-a.allocBytes)/1e6)
	t.add("runtime.cpu_s", b.cpu-a.cpu)
	t.add("runtime.cpu_avail_s", b.wall.Sub(a.wall).Seconds()*float64(procs))
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
