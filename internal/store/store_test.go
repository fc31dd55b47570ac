package store_test

import (
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/diag"
	"mfv/internal/store"
	"mfv/internal/testnet"
)

// buildSnapshot assembles a small but fully valid snapshot (Fig. 2 topology,
// two hand-built AFTs) without booting an emulation.
func buildSnapshot(t testing.TB) *store.Snapshot {
	t.Helper()
	topoJSON, err := testnet.Fig2().Marshal()
	if err != nil {
		t.Fatalf("marshal topology: %v", err)
	}
	afts := map[string]*aft.AFT{
		"r1": buildAFT(t, "r1", "10.0.0.0/24"),
		"r2": buildAFT(t, "r2", "10.0.1.0/24"),
	}
	stamps := map[string]store.Stamp{
		"r1": {Epoch: 1, Gen: 7},
		"r2": {Epoch: 1, Gen: 9},
	}
	s, err := store.New(topoJSON, afts, stamps, 42, 3*time.Second, 40*time.Second)
	if err != nil {
		t.Fatalf("store.New: %v", err)
	}
	return s
}

func buildAFT(t testing.TB, device, prefix string) *aft.AFT {
	t.Helper()
	b := aft.NewBuilder(device)
	nh := b.AddNextHop(aft.NextHop{IPAddress: "192.0.2.1", Interface: "Ethernet1"})
	g := b.AddGroup([]uint64{nh})
	b.AddIPv4(netip.MustParsePrefix(prefix), g, "BGP", 100)
	return b.Build()
}

// buildLabeledAFT adds multi-label stacks, a receive hop and several MPLS
// label entries to the hashed surface.
func buildLabeledAFT(device string) *aft.AFT {
	b := aft.NewBuilder(device)
	nh1 := b.AddNextHop(aft.NextHop{IPAddress: "192.0.2.1", Interface: "Ethernet1", PushedLabels: []uint32{16002, 16003}})
	nh2 := b.AddNextHop(aft.NextHop{IPAddress: "192.0.2.3", Interface: "Ethernet2"})
	recv := b.AddNextHop(aft.NextHop{Receive: true})
	g := b.AddGroup([]uint64{nh2, nh1})
	gr := b.AddGroup([]uint64{recv})
	b.AddIPv4(netip.MustParsePrefix("10.0.2.0/24"), g, "isis", 20)
	b.AddIPv4(netip.MustParsePrefix("2.2.2.2/32"), gr, "local", 0)
	b.AddLabel(16002, gr, true)
	b.AddLabel(24001, g, false)
	return b.Build()
}

// TestHashAFTsPinned pins DataplaneHash to literal digests: every saved
// snapshot and sweep journal stores it, and Load rejects a mismatch, so a
// change in its bytes would orphan every file already on disk.
func TestHashAFTsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		afts map[string]*aft.AFT
		want string
	}{
		{"plain", map[string]*aft.AFT{
			"r1": buildAFT(t, "r1", "10.0.0.0/24"),
			"r2": buildAFT(t, "r2", "10.0.1.0/24"),
		}, "eefed3189a09b42e4870d0c66627d302b245d42928091045e1a306a01d97a0ca"},
		{"labeled", map[string]*aft.AFT{
			"r1": buildAFT(t, "r1", "10.0.0.0/24"),
			"r3": buildLabeledAFT("r3"),
		}, "1772b0f505644446847d2a288e5cfc71ed9216f6e8304ac00d3b217ff3721d6e"},
		{"empty", map[string]*aft.AFT{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	} {
		if got := store.HashAFTs(tc.afts); got != tc.want {
			t.Errorf("%s: HashAFTs = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := buildSnapshot(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := store.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seed != 42 || got.ConvergedAt != 40*time.Second || got.StartupAt != 3*time.Second {
		t.Fatalf("scalars did not round-trip: %+v", got)
	}
	if got.TopologyHash != s.TopologyHash || got.DataplaneHash != s.DataplaneHash {
		t.Fatalf("hashes did not round-trip")
	}
	if got.Stamps["r2"] != (store.Stamp{Epoch: 1, Gen: 9}) {
		t.Fatalf("stamps did not round-trip: %+v", got.Stamps)
	}
	topo, err := got.Topology()
	if err != nil {
		t.Fatalf("topology: %v", err)
	}
	if len(topo.Nodes) == 0 {
		t.Fatalf("restored topology has no nodes")
	}
	afts, err := got.AFTs()
	if err != nil {
		t.Fatalf("afts: %v", err)
	}
	want, _ := s.AFTs()
	for name, a := range want {
		if afts[name] == nil || afts[name].Fingerprint() != a.Fingerprint() {
			t.Fatalf("AFT for %s did not round-trip", name)
		}
	}
	if store.HashAFTs(afts) != s.DataplaneHash {
		t.Fatalf("restored dataplane hash mismatch")
	}
}

func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	s := buildSnapshot(t)
	data, err := s.Encode()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated"},
		{"short header", func(b []byte) []byte { return b[:10] }, "truncated"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version skew", func(b []byte) []byte { b[8] = 99; return b }, "version"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-5] }, "truncated"},
		{"flipped payload byte", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "checksum"},
		{"flipped crc byte", func(b []byte) []byte { b[20] ^= 0x01; return b }, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			buf := append([]byte(nil), data...)
			_, err := store.Decode(tc.mutate(buf))
			if err == nil {
				t.Fatalf("decode accepted %s input", tc.name)
			}
			var de *diag.Error
			if !errors.As(err, &de) {
				t.Fatalf("error is not a diagnostic: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSnapshotSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.mfvsnap")
	s := buildSnapshot(t)
	if err := s.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	// Saving over an existing snapshot must succeed (rename semantics).
	if err := s.Save(path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	got, err := store.Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if got.DataplaneHash != s.DataplaneHash {
		t.Fatalf("loaded snapshot differs")
	}
	// No temp files may survive a successful save.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "net.mfvsnap" {
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory not clean after save: %v", names)
	}
	// A corrupted file on disk must fail with a diagnostic naming the path.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = store.Load(path)
	if err == nil {
		t.Fatalf("load accepted corrupt file")
	}
	if !strings.Contains(err.Error(), "net.mfvsnap") {
		t.Fatalf("load error does not name the file: %v", err)
	}
}
