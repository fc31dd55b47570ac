// Command mfvbench is the repository benchmark. It drives the mfv library
// in-process, closed-loop with one caller, on one of three workloads, checks
// every answer against an oracle that does not use the code under test, and
// prints a JSON result as its last line. Build and run it from the root of
// the repository with
//
//	bash mfvbench/run.sh --workload wan30-whatif --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run alternates untraced ops with traced ones on the same input, records
// a span around every call into a layer's public function, and reports the
// per-layer metrics; spans and metrics are also written under
// .bench_build/mfvbench. README.md defines every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// outDir holds traced-run output and per-run scratch files, relative to the
// directory the benchmark runs from.
const outDir = ".bench_build/mfvbench"

// stage is one figure an op reports for the human-readable summary.
type stage struct {
	name, unit string
	value      float64
	// tail reports the p50 and, when enough samples lie beyond it, the p90
	// instead of the median alone.
	tail bool
}

// opResult is what one op leaves for the untimed steps after it.
type opResult struct {
	stages []stage
	// hash digests the dataplane the op converged; nil when it converges
	// none. It runs untimed, and only in traced runs.
	hash func() string
	// check runs the oracles (and, for a traced op, reads its counters).
	check func() error
	// release stops the op's emulators and removes its files.
	release func()
}

// workload is one benchmark input family.
type workload struct {
	setupReps int
	// setup builds the workload's fixed state, replacing any earlier one.
	setup func() error
	// op runs generated input i. With a nil tracer it goes through the
	// library's top-level entry points; with a tracer it calls each layer's
	// public function itself, inside spans.
	op func(i int, tr *tracer) (*opResult, error)
	// selfCheck, when set, runs once before a traced run's ops.
	selfCheck func() error
	close     func()
}

var workloads = map[string]func(seed int64, dir string) (*workload, error){
	"wan30-whatif":    newWhatIf,
	"wan30-sweep-k1":  newSweep,
	"wan30-fulltable": newFullTable,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mfvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 30, "how long to run ops")
	trace := fs.Int("trace", 0, "1 for a traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "mfvbench: want --workload one of %s, --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "mfvbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "mfvbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	w, err := mk(*seed, dir)
	if err != nil {
		fmt.Fprintln(stderr, "mfvbench:", err)
		return 1
	}
	defer w.close()

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# env go=%s GOMAXPROCS=%d GOGC=%s NumCPU=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), gogc(), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	res, err := measure(w, *seconds, *trace == 1, out, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "mfvbench:", err)
		return 1
	}
	if *trace == 1 {
		base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", *name, *seed))
		if err := writeTraceFiles(res, base); err != nil {
			fmt.Fprintln(stderr, "mfvbench:", err)
			return 1
		}
		fmt.Fprintf(out, "# spans: %s-spans.jsonl  per-layer metrics: %s-layers.json\n", base, base)
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "mfvbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.result.Correct {
		return 1
	}
	return 0
}

// runStats is a finished run: the printed result plus the tracer behind it.
type runStats struct {
	result result
	tr     *tracer
}

// measure sets the workload up several times, then runs ops until the time
// is spent, and derives the metrics.
func measure(w *workload, seconds int, traced bool, out, stderr io.Writer) (*runStats, error) {
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		if w.selfCheck != nil {
			if err := w.selfCheck(); err != nil {
				return nil, fmt.Errorf("layer-sequence check: %w", err)
			}
		}
	}

	var (
		attempted, failed int
		walls, cpus       []float64 // untraced ops, ms
		ref               = newRefSampler()
		tracedWalls       []float64
		stages            = map[string][]float64{}
		stageOrder        []stage
	)
	fail := func(i int, err error) {
		failed++
		if failed <= 5 {
			fmt.Fprintf(stderr, "mfvbench: op %d: %v\n", i, err)
		}
	}
	// One warm-up op lets the heap grow to its working size before timing;
	// its oracles still count.
	attempted++
	if res, _, _, err := timeOp(w, 0, nil); err != nil {
		fail(0, err)
	} else if err := finishOp(res); err != nil {
		fail(0, err)
	}
	if !traced {
		ref.work() // untimed, like the warm-up op
	}
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; time.Since(start) < budget; i++ {
		attempted++
		res, wall, cpu, err := timeOp(w, i, nil)
		if err != nil {
			fail(i, err)
			continue
		}
		walls, cpus = append(walls, wall), append(cpus, cpu)
		var want string
		if traced && res.hash != nil {
			want = res.hash()
		}
		for _, s := range res.stages {
			if _, seen := stages[s.name]; !seen {
				stageOrder = append(stageOrder, s)
			}
			stages[s.name] = append(stages[s.name], s.value)
		}
		if err := finishOp(res); err != nil {
			fail(i, err)
		}
		if !traced {
			ref.after(time.Duration(wall * 1e6))
			continue
		}
		// The traced op repeats input i through the explicit layer sequence;
		// it must converge to the same dataplane as the untraced op did.
		attempted++
		tres, twall, _, err := timeOp(w, i, tr)
		if err != nil {
			fail(i, err)
			continue
		}
		tracedWalls = append(tracedWalls, twall)
		if tres.hash != nil {
			if got := tres.hash(); got != want {
				tres.release()
				fail(i, fmt.Errorf("layer-sequence check: traced path DataplaneHash %.12s differs from the library entry point's %.12s", got, want))
				continue
			}
		}
		if err := finishOp(tres); err != nil {
			fail(i, err)
		}
	}

	rs := &runStats{tr: tr, result: result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{},
	}}
	fmt.Fprintf(out, "# ops attempted=%d failed=%d\n", attempted, failed)
	fmt.Fprintf(out, "# setup_s %.4f s (median of %d set-ups)\n", median(setups), len(setups))
	fmt.Fprintf(out, "# peak_rss_mb %.1f MB\n", peakRSSMB())
	for _, s := range stageOrder {
		xs := stages[s.name]
		if !s.tail {
			fmt.Fprintf(out, "# %s %.4f %s (median of %d ops)\n", s.name, median(xs), s.unit, len(xs))
			continue
		}
		fmt.Fprintf(out, "# %s.p50 %.4f %s (n=%d)\n", s.name, median(xs), s.unit, len(xs))
		if p90, ok := quantile(xs, 0.9); ok {
			fmt.Fprintf(out, "# %s.p90 %.4f %s (n=%d, %d beyond)\n", s.name, p90, s.unit, len(xs), beyond(len(xs), 0.9))
		} else {
			fmt.Fprintf(out, "# %s.p90 not reported: fewer than %d of %d samples beyond it\n", s.name, minBeyond, len(xs))
		}
	}
	if len(walls) == 0 {
		return nil, errors.New("no op completed")
	}
	if !traced {
		fmt.Fprintf(out, "# op_ms.p50 %.4f ms, op_cpu_ms.p50 %.4f ms (n=%d)\n", median(walls), median(cpus), len(walls))
		fmt.Fprintf(out, "# ref_ms.p50 %.4f ms, ref_cpu_ms.p50 %.4f ms (n=%d reference computations)\n",
			median(ref.walls), median(ref.cpus), len(ref.walls))
		values := map[string]float64{
			"setup_s":        median(setups),
			"peak_rss_mb":    peakRSSMB(),
			"op_ref.p50":     median(walls) / median(ref.walls),
			"op_cpu_ref.p50": median(cpus) / median(ref.cpus),
		}
		for _, m := range endToEnd {
			rs.result.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		return rs, nil
	}
	if len(tracedWalls) > 0 {
		tr.overhead = median(tracedWalls) / median(walls)
	}
	for _, m := range perLayer {
		rs.result.Metrics[m.name] = metricValue{m.value(tr), m.unit}
		fmt.Fprintf(out, "# %s %.4f %s\n", m.name, rs.result.Metrics[m.name].Value, m.unit)
	}
	return rs, nil
}

// timeOp runs op i and returns its wall and CPU time in ms. A traced op is
// wrapped in a root span and its runtime cost is added to the tracer.
func timeOp(w *workload, i int, tr *tracer) (*opResult, float64, float64, error) {
	var rt0 runtimeSample
	if tr != nil {
		rt0 = readRuntime()
	}
	endOp := tr.beginOp()
	cpu0, t0 := processCPU(), time.Now()
	res, err := w.op(i, tr)
	wall, cpu := time.Since(t0), processCPU()-cpu0
	endOp()
	if tr != nil {
		tr.addRuntime(rt0, readRuntime(), runtime.GOMAXPROCS(0))
	}
	return res, float64(wall) / 1e6, float64(cpu) / 1e6, err
}

// finishOp runs an op's oracles and releases it.
func finishOp(res *opResult) error {
	defer res.release()
	return res.check()
}

func writeTraceFiles(rs *runStats, base string) error {
	if err := rs.tr.writeSpans(base + "-spans.jsonl"); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.MarshalIndent(rs.result.Metrics, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-layers.json", append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing per-layer metrics: %w", err)
	}
	return nil
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100(default)"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
