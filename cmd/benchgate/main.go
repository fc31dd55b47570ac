// Command benchgate turns `go test -bench` output into a committed JSON
// baseline and gates CI on benchmark regressions against it.
//
// Usage:
//
//	go test -bench . -benchtime 1x -benchmem -run '^$' ./... | benchgate -emit out.json
//	benchgate -compare -baseline bench/baseline.json -current out.json
//
// Emit mode records ns/op, plus B/op and allocs/op when the run used
// -benchmem. Compare mode gates on ns/op alone and exits nonzero only on a hard failure: a benchmark whose name
// matches -critical (default "E1") regressing more than -fail (default 30%).
// Any benchmark regressing more than -warn (default 10%) is reported as a
// warning. When the baseline was recorded on a different CPU model, hard
// failures are downgraded to warnings — absolute ns/op does not transfer
// across machines, and the baseline is refreshed on the machine that gates.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Result is one benchmark measurement. BOp and AllocsOp are nil when the
// run did not report them (no -benchmem or b.ReportAllocs).
type Result struct {
	Name     string   `json:"name"` // normalized: trailing -GOMAXPROCS stripped
	NsOp     float64  `json:"ns_op"`
	BOp      *float64 `json:"b_op,omitempty"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
}

// Report is the JSON artifact: environment plus sorted results.
type Report struct {
	Commit  string   `json:"commit,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Results []Result `json:"results"`
}

// benchLine matches `BenchmarkName-8   	      12	  93218 ns/op	 ...`.
// The `#NN` duplicate-name counter and the `-GOMAXPROCS` suffix are both
// normalization noise: strip them so reports compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:#\d+)?(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

// memCol matches the -benchmem columns anywhere after ns/op, between the
// custom metrics b.ReportMetric adds.
var memCol = regexp.MustCompile(`\s([0-9.]+) (B|allocs)/op\b`)

// cpuLine matches the `cpu: ...` header go test prints.
var cpuLine = regexp.MustCompile(`^cpu:\s+(.+?)\s*$`)

func parse(r *bufio.Scanner) (*Report, error) {
	rep := &Report{}
	seen := map[string]bool{}
	for r.Scan() {
		line := r.Text()
		if m := cpuLine.FindStringSubmatch(line); m != nil {
			rep.CPU = m[1]
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchgate: bad ns/op in %q: %w", line, err)
		}
		name := m[1]
		if seen[name] {
			// Sub-benchmark collisions after -N stripping (e.g. workers=1
			// twice when GOMAXPROCS==1): keep the first measurement.
			continue
		}
		seen[name] = true
		res := Result{Name: name, NsOp: ns}
		for _, c := range memCol.FindAllStringSubmatch(line, -1) {
			v, err := strconv.ParseFloat(c[1], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad %s/op in %q: %w", c[2], line, err)
			}
			if c[2] == "B" {
				res.BOp = &v
			} else {
				res.AllocsOp = &v
			}
		}
		rep.Results = append(rep.Results, res)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	sort.Slice(rep.Results, func(i, j int) bool { return rep.Results[i].Name < rep.Results[j].Name })
	return rep, nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	return rep, nil
}

func emit(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// compare reports warnings and hard failures of current against baseline.
// A non-nil only restricts the comparison (including the missing-benchmark
// scan) to matching names, so a CI job that runs a subset of the suite —
// the scale tier runs alone under its own timeout — doesn't drown in
// "missing from current run" noise about benchmarks it never executed.
func compare(baseline, current *Report, warnPct, failPct float64, critical, only *regexp.Regexp) (warnings, failures []string) {
	base := map[string]float64{}
	for _, r := range baseline.Results {
		base[r.Name] = r.NsOp
	}
	crossCPU := baseline.CPU != "" && current.CPU != "" && baseline.CPU != current.CPU
	for _, r := range current.Results {
		if only != nil && !only.MatchString(r.Name) {
			continue
		}
		was, ok := base[r.Name]
		if !ok || was <= 0 {
			continue
		}
		pct := (r.NsOp - was) / was * 100
		if pct <= warnPct {
			continue
		}
		msg := fmt.Sprintf("%s: %.0f -> %.0f ns/op (+%.1f%%)", r.Name, was, r.NsOp, pct)
		if pct > failPct && critical.MatchString(r.Name) && !crossCPU {
			failures = append(failures, msg)
		} else {
			warnings = append(warnings, msg)
		}
	}
	if crossCPU {
		warnings = append(warnings, fmt.Sprintf(
			"baseline CPU %q != current CPU %q: regressions downgraded to warnings; refresh the baseline",
			baseline.CPU, current.CPU))
	}
	for _, r := range baseline.Results {
		if only != nil && !only.MatchString(r.Name) {
			continue
		}
		if _, ok := indexOf(current.Results, r.Name); !ok {
			warnings = append(warnings, fmt.Sprintf("%s: present in baseline, missing from current run", r.Name))
		}
	}
	return warnings, failures
}

func indexOf(rs []Result, name string) (int, bool) {
	for i, r := range rs {
		if r.Name == name {
			return i, true
		}
	}
	return 0, false
}

func main() {
	var (
		emitPath = flag.String("emit", "", "parse `go test -bench` output from stdin and write a JSON report here ('-' for stdout)")
		doCmp    = flag.Bool("compare", false, "compare -current against -baseline")
		basePath = flag.String("baseline", "bench/baseline.json", "committed baseline report")
		curPath  = flag.String("current", "", "report for the change under test")
		commit   = flag.String("commit", "", "commit SHA to record in an emitted report")
		warnPct  = flag.Float64("warn", 10, "warn when any benchmark regresses more than this percent")
		failPct  = flag.Float64("fail", 30, "fail when a critical benchmark regresses more than this percent")
		critical = flag.String("critical", "E1", "regexp selecting benchmarks whose hard regression fails the gate")
		onlyPat  = flag.String("only", "", "regexp restricting comparison to matching benchmarks (for subset CI jobs); empty compares everything")
	)
	flag.Parse()

	switch {
	case *emitPath != "":
		rep, err := parse(bufio.NewScanner(os.Stdin))
		if err == nil && len(rep.Results) == 0 {
			err = fmt.Errorf("benchgate: no benchmark lines on stdin")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		rep.Commit = *commit
		if err := emit(rep, *emitPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchgate: recorded %d benchmarks\n", len(rep.Results))

	case *doCmp:
		if *curPath == "" {
			fmt.Fprintln(os.Stderr, "benchgate: -compare requires -current")
			os.Exit(2)
		}
		baseline, err := load(*basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		current, err := load(*curPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		crit, err := regexp.Compile(*critical)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: bad -critical:", err)
			os.Exit(2)
		}
		var only *regexp.Regexp
		if *onlyPat != "" {
			if only, err = regexp.Compile(*onlyPat); err != nil {
				fmt.Fprintln(os.Stderr, "benchgate: bad -only:", err)
				os.Exit(2)
			}
		}
		warnings, failures := compare(baseline, current, *warnPct, *failPct, crit, only)
		for _, w := range warnings {
			fmt.Printf("WARN  %s\n", w)
		}
		for _, f := range failures {
			fmt.Printf("FAIL  %s\n", f)
		}
		if len(failures) > 0 {
			fmt.Printf("benchgate: %d hard regression(s) past %.0f%% on critical benchmarks (%s)\n",
				len(failures), *failPct, *critical)
			os.Exit(1)
		}
		fmt.Printf("benchgate: ok — %d benchmarks compared, %d warning(s)\n",
			len(current.Results), len(warnings))

	default:
		fmt.Fprintln(os.Stderr, "benchgate: need -emit or -compare (see -h)")
		os.Exit(2)
	}
}
