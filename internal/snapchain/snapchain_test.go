package snapchain

import (
	"testing"
	"time"

	"mfv/internal/kne"
	"mfv/internal/sim"
	"mfv/internal/testnet"
)

// TestDiffStamps covers the dirty-set derivation directly: changed
// generations, changed epochs (rebuilt router), and one-sided devices all
// count as dirty; identical stamps do not.
func TestDiffStamps(t *testing.T) {
	a := map[string]kne.GenStamp{
		"r1": {Epoch: 0, Gen: 5},
		"r2": {Epoch: 0, Gen: 7},
		"r3": {Epoch: 1, Gen: 2},
		"r5": {Epoch: 0, Gen: 1},
	}
	b := map[string]kne.GenStamp{
		"r1": {Epoch: 0, Gen: 5}, // clean
		"r2": {Epoch: 0, Gen: 8}, // generation moved
		"r3": {Epoch: 2, Gen: 2}, // rebuilt: epoch moved, gen reset
		"r4": {Epoch: 0, Gen: 1}, // new
	}
	got := DiffStamps(a, b)
	want := []string{"r2", "r3", "r4", "r5"}
	if len(got) != len(want) {
		t.Fatalf("DiffStamps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DiffStamps = %v, want %v", got, want)
		}
	}
	if d := DiffStamps(a, a); len(d) != 0 {
		t.Errorf("DiffStamps(x, x) = %v", d)
	}
}

// TestSnapFingerprintCarryOver chains snapshots across link and router
// faults and their repairs: every carried fingerprint must equal a fresh one
// computed from the snapshot's own AFT.
func TestSnapFingerprintCarryOver(t *testing.T) {
	topo := testnet.Fig2()
	em, err := kne.New(kne.Config{Topology: topo, Sim: sim.New(7)})
	if err != nil {
		t.Fatal(err)
	}
	if err := em.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := em.RunUntilConverged(30*time.Second, time.Hour); err != nil {
		t.Fatal(err)
	}
	const hold, timeout = 2 * time.Minute, 30 * time.Minute
	chain := New(em, topo, nil)
	link := topo.Links[0].A
	router := topo.Nodes[len(topo.Nodes)-1].Name
	steps := []struct {
		name string
		do   func() error
	}{
		{"baseline", func() error { return nil }},
		{"link down", func() error { return em.SetLinkDown(link) }},
		{"link up", func() error { return em.SetLinkUp(link) }},
		{"router fail", func() error { return em.FailRouter(router) }},
		{"router restore", func() error {
			if err := em.RestoreRouter(router); err != nil {
				return err
			}
			return em.AwaitRunning(router, timeout)
		}},
		{"quiet", func() error { return nil }},
	}
	carried := 0
	var prev Snap
	for i, st := range steps {
		if err := st.do(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		em.Settle(hold, timeout)
		s, err := chain.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", st.name, err)
		}
		if len(s.FPs) != len(s.AFTs) {
			t.Errorf("%s: %d fingerprints for %d AFTs", st.name, len(s.FPs), len(s.AFTs))
		}
		for name, a := range s.AFTs {
			if got, want := s.FPs[name], a.Fingerprint(); got != want {
				t.Errorf("%s: FPs[%s] = %q, want %q", st.name, name, got, want)
			}
		}
		if i > 0 {
			carried += len(s.AFTs) - len(DiffStamps(prev.Stamps, s.Stamps))
		}
		prev = s
	}
	if carried == 0 {
		t.Error("no snapshot had a clean router to carry a fingerprint for")
	}
}
