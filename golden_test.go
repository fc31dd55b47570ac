package mfv

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden outputs pin the exact rendered bytes of the Fig. 2 differential and
// the Fig. 2 k=1 sweep. The equivalence tests elsewhere compare one run
// against another; these compare against bytes recorded once, so a change to
// outcome rendering or ordering fails here even when every run agrees.

func fig2Differential(t *testing.T) string {
	t.Helper()
	before, err := Run(Snapshot{Topology: Fig2()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Run(Snapshot{Topology: Fig2Buggy()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range DifferentialReachability(before, after) {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

func fig2SweepK1(t *testing.T) string {
	t.Helper()
	res, err := Run(Snapshot{Topology: Fig2()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSweep(res, Fig2(), SweepOptions{K: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(rep.Table(0))
	for _, row := range rep.Rows {
		fmt.Fprintf(&b, "\n#%d %s\n", row.Rank, row.Failure)
		for _, d := range row.Diffs {
			fmt.Fprintln(&b, d)
		}
	}
	return b.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: rendered output differs from golden\n--- want\n%s\n--- got\n%s", name, want, got)
	}
}

func TestGoldenFig2Differential(t *testing.T) {
	got := fig2Differential(t)
	if n := strings.Count(got, "\n"); n != 16 {
		t.Errorf("%d differential lines, want 16", n)
	}
	checkGolden(t, "fig2_differential.golden", got)
}

func TestGoldenFig2SweepK1(t *testing.T) {
	checkGolden(t, "fig2_sweep_k1.golden", fig2SweepK1(t))
}
