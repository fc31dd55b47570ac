package main

import (
	"bufio"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mfv
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkE1_DifferentialReachability 	       1	    233601 ns/op	        16.00 changed-flows
BenchmarkBatchDifferential/workers=1 	       1	 341846740 ns/op
BenchmarkBatchDifferential/workers=1#01 	       1	 323194230 ns/op
BenchmarkVerifyAllPairs-8                	       1	     56565 ns/op
PASS
ok  	mfv	0.984s
`

func mustParse(t *testing.T, in string) *Report {
	t.Helper()
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParse(t *testing.T) {
	rep := mustParse(t, sample)
	if rep.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", rep.CPU)
	}
	want := map[string]float64{
		"BenchmarkE1_DifferentialReachability": 233601,
		"BenchmarkBatchDifferential/workers=1": 341846740, // first wins on collision
		"BenchmarkVerifyAllPairs":              56565,     // -8 suffix stripped
	}
	if len(rep.Results) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(rep.Results), len(want), rep.Results)
	}
	for _, r := range rep.Results {
		if want[r.Name] != r.NsOp {
			t.Errorf("%s = %v ns/op, want %v", r.Name, r.NsOp, want[r.Name])
		}
	}
}

// TestParseBenchmem checks the -benchmem columns land in b_op/allocs_op,
// custom metrics around them notwithstanding, and stay absent without it.
func TestParseBenchmem(t *testing.T) {
	rep := mustParse(t, `cpu: x
BenchmarkExportAFT-2   	   13274	     96480 ns/op	        83.00 entries	   36624 B/op	      46 allocs/op
BenchmarkZeroAlloc-2   	 1000000	        12.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkNoMem-2       	       1	    233601 ns/op	        16.00 changed-flows
`)
	want := map[string][2]float64{
		"BenchmarkExportAFT": {36624, 46},
		"BenchmarkZeroAlloc": {0, 0},
	}
	if len(rep.Results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(rep.Results), rep.Results)
	}
	for _, r := range rep.Results {
		w, ok := want[r.Name]
		if !ok {
			if r.BOp != nil || r.AllocsOp != nil {
				t.Errorf("%s: memory columns parsed from a line without them", r.Name)
			}
			continue
		}
		if r.BOp == nil || r.AllocsOp == nil || *r.BOp != w[0] || *r.AllocsOp != w[1] {
			t.Errorf("%s: b_op %v allocs_op %v, want %v", r.Name, r.BOp, r.AllocsOp, w)
		}
	}
	if rep.Results[0].NsOp != 96480 {
		t.Errorf("ns_op = %v, want 96480", rep.Results[0].NsOp)
	}
}

func TestCompareThresholds(t *testing.T) {
	crit := regexp.MustCompile("E1")
	base := &Report{CPU: "x", Results: []Result{
		{Name: "BenchmarkE1_Differential", NsOp: 100},
		{Name: "BenchmarkOther", NsOp: 100},
	}}
	cur := func(e1, other float64) *Report {
		return &Report{CPU: "x", Results: []Result{
			{Name: "BenchmarkE1_Differential", NsOp: e1},
			{Name: "BenchmarkOther", NsOp: other},
		}}
	}

	if w, f := compare(base, cur(105, 105), 10, 30, crit, nil); len(w) != 0 || len(f) != 0 {
		t.Errorf("within noise: warnings %v failures %v", w, f)
	}
	if w, f := compare(base, cur(115, 115), 10, 30, crit, nil); len(w) != 2 || len(f) != 0 {
		t.Errorf("soft regressions: warnings %v failures %v", w, f)
	}
	// >30% on the critical benchmark fails; the same slip elsewhere warns.
	if w, f := compare(base, cur(140, 140), 10, 30, crit, nil); len(f) != 1 || len(w) != 1 {
		t.Errorf("hard regression: warnings %v failures %v", w, f)
	}
	// Cross-CPU baselines never hard-fail.
	far := &Report{CPU: "y", Results: cur(300, 300).Results}
	if _, f := compare(base, far, 10, 30, crit, nil); len(f) != 0 {
		t.Errorf("cross-cpu must not fail: %v", f)
	}
	// A benchmark that disappeared from the current run is flagged.
	missing := &Report{CPU: "x", Results: []Result{{Name: "BenchmarkOther", NsOp: 100}}}
	w, f := compare(base, missing, 10, 30, crit, nil)
	if len(f) != 0 || len(w) != 1 || !strings.Contains(w[0], "missing") {
		t.Errorf("missing benchmark: warnings %v failures %v", w, f)
	}
}

func TestCompareOnlyFilter(t *testing.T) {
	crit := regexp.MustCompile("Scale")
	base := &Report{CPU: "x", Results: []Result{
		{Name: "BenchmarkScaleBoot", NsOp: 100},
		{Name: "BenchmarkE1_Differential", NsOp: 100},
	}}
	// A scale-only CI job: E1 is absent from current and regressed would-be
	// numbers outside the filter must be invisible.
	cur := &Report{CPU: "x", Results: []Result{
		{Name: "BenchmarkScaleBoot", NsOp: 150},
	}}
	only := regexp.MustCompile("^BenchmarkScale")
	w, f := compare(base, cur, 10, 30, crit, only)
	if len(f) != 1 || !strings.Contains(f[0], "ScaleBoot") {
		t.Errorf("scale regression not failed under -only: %v", f)
	}
	for _, msg := range w {
		if strings.Contains(msg, "missing") {
			t.Errorf("filtered-out benchmark flagged as missing: %v", w)
		}
	}
	// Without the filter, the absent E1 is flagged.
	w, _ = compare(base, cur, 10, 30, crit, nil)
	found := false
	for _, msg := range w {
		found = found || strings.Contains(msg, "missing")
	}
	if !found {
		t.Errorf("unfiltered compare lost the missing-benchmark warning: %v", w)
	}
}
