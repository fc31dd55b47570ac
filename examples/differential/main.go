// Differential reachability (the paper's experiment E1): run the healthy
// Fig. 2 network and a buggy variant with the r2–r3 eBGP session removed,
// then exhaustively compare forwarding outcomes across the two snapshots.
// The query surfaces exactly the flows that broke — the loss of
// connectivity from AS65003 to AS65002.
//
//	go run ./examples/differential
package main

import (
	"fmt"
	"log"

	"mfv"
)

func main() {
	fmt.Println("running healthy snapshot (6 nodes, iBGP + eBGP + IS-IS)…")
	before, err := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2()}, mfv.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  converged at %v (virtual)\n", before.ConvergedAt.Round(1e9))

	fmt.Println("running buggy snapshot (r2–r3 eBGP session removed)…")
	after, err := mfv.Run(mfv.Snapshot{Topology: mfv.Fig2Buggy()}, mfv.Options{})
	if err != nil {
		log.Fatal(err)
	}

	diffs := mfv.DifferentialReachability(before, after)
	fmt.Printf("\ndifferential reachability: %d changed flows\n", len(diffs))

	// Summarize per source router, highlighting lost deliveries.
	lostBySrc := map[string]int{}
	for _, d := range diffs {
		if d.Lost() {
			lostBySrc[d.Src]++
		}
	}
	fmt.Println("\nlost deliveries per source:")
	for i := 1; i <= 6; i++ {
		src := fmt.Sprintf("r%d", i)
		fmt.Printf("  %s (AS%d): %d destination classes lost\n", src, fig2AS(src), lostBySrc[src])
	}

	fmt.Println("\nsample findings:")
	shown := 0
	for _, d := range diffs {
		if d.Lost() {
			fmt.Printf("  %s\n", d)
			shown++
			if shown == 8 {
				break
			}
		}
	}
}

func fig2AS(name string) int {
	switch name {
	case "r1", "r2":
		return 65002
	case "r3", "r4":
		return 65003
	default:
		return 65001
	}
}
