package main

import (
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"time"

	"mfv"
	"mfv/internal/routegen"
	"mfv/internal/verify"
)

const (
	feedPrefixes = 20000
	feedPeerAS   = 64700
	// withdrawShare is the share of the feed's prefixes withdrawn in the
	// comparison dataplane.
	withdrawShare = 0.1
)

var feedPeer = netip.MustParseAddr("198.51.100.1")

// genFeeds draws the full table injected at router from seed, and from the
// same seed the prefixes withdrawn in the comparison dataplane. It returns
// the full feed, the feed without the withdrawn prefixes, and the withdrawn
// set.
func genFeeds(seed int64, router string) (full, rest []mfv.InjectedFeed, withdrawn map[netip.Prefix]bool) {
	feeds := mfv.NewFeedGenerator(seed).FullTable(feedPeerAS, feedPrefixes)
	rng := rand.New(rand.NewSource(seed))
	withdrawn = map[netip.Prefix]bool{}
	var kept []routegen.Feed
	for _, f := range feeds {
		k := f
		k.Prefixes = nil
		for _, p := range f.Prefixes {
			if rng.Float64() < withdrawShare {
				withdrawn[p] = true
			} else {
				k.Prefixes = append(k.Prefixes, p)
			}
		}
		kept = append(kept, k)
	}
	inject := func(fs []routegen.Feed) []mfv.InjectedFeed {
		return []mfv.InjectedFeed{{Router: router, PeerAddr: feedPeer, PeerAS: feedPeerAS, Feeds: fs}}
	}
	return inject(feeds), inject(kept), withdrawn
}

// covered reports whether some prefix in set contains a.
func covered(set map[netip.Prefix]bool, a netip.Addr) bool {
	for bits := 32; bits >= 0; bits-- {
		if p, err := a.Prefix(bits); err == nil && set[p] {
			return true
		}
	}
	return false
}

// newFullTable is the wan30-fulltable workload: each op cold-converges WAN(30)
// with a 20k-prefix table injected at its edge, persists and restores the
// converged dataplane through the snapshot store, and queries the restored
// network.
func newFullTable(seed int64, dir string) (*workload, error) {
	var (
		topo      *mfv.Topology
		full      []mfv.InjectedFeed
		withdrawn map[netip.Prefix]bool
		cmp       *mfv.Result
	)
	stopCmp := func() {
		if cmp != nil {
			cmp.Emulator.Stop()
		}
	}
	w := &workload{setupReps: 5, close: stopCmp}
	w.setup = func() error {
		stopCmp()
		topo = mfv.WAN(30, true)
		var rest []mfv.InjectedFeed
		full, rest, withdrawn = genFeeds(seed, topo.Nodes[0].Name)
		var err error
		cmp, err = mfv.Run(mfv.Snapshot{Topology: topo, Feeds: rest}, mfv.Options{})
		return err
	}
	w.op = func(i int, tr *tracer) (*opResult, error) {
		path := filepath.Join(dir, fmt.Sprintf("fulltable-%d.snap", i))
		snap := mfv.Snapshot{Topology: topo, Feeds: full}
		var o *mfv.Observer
		if tr != nil {
			o = mfv.NewMetricsObserver()
		}
		var live *mfv.Result
		release := func() {
			if live != nil {
				live.Emulator.Stop()
			}
			os.Remove(path)
		}
		fail := func(step string, err error) (*opResult, error) {
			release()
			return nil, fmt.Errorf("%s: %w", step, err)
		}

		t0 := time.Now()
		var err error
		if tr == nil {
			live, err = mfv.Run(snap, mfv.Options{})
		} else {
			live, err = layerSequence(snap, tr, o)
		}
		if err != nil {
			return fail("cold converge", err)
		}
		t1 := time.Now()
		end := tr.begin(spanCapture)
		stored, err := mfv.CaptureSnapshot(topo, live)
		end()
		if err != nil {
			return fail("capture", err)
		}
		end = tr.begin(spanSave)
		err = mfv.SaveSnapshot(stored, path)
		end()
		if err != nil {
			return fail("save", err)
		}
		t2 := time.Now()
		end = tr.begin(spanLoad)
		loaded, err := mfv.LoadSnapshot(path)
		end()
		if err != nil {
			return fail("load", err)
		}
		end = tr.begin(spanRestore)
		restored, err := mfv.RunFromSnapshot(loaded, mfv.Options{Obs: o})
		end()
		if err != nil {
			return fail("restore", err)
		}
		t3 := time.Now()
		n := restored.Network
		end = tr.begin(spanAllPairs)
		n.AllPairs()
		end()
		end = tr.begin(spanLoops)
		loops := n.DetectLoops()
		end()
		end = tr.begin(spanBlackHoles)
		n.DetectBlackHoles()
		end()
		end = tr.begin(spanDiff)
		diffs := verify.Differential(n, cmp.Network)
		end()
		t4 := time.Now()

		return &opResult{
			stages: []stage{
				{name: "coldverify_s", unit: "s", value: t1.Sub(t0).Seconds()},
				{name: "persist_s", unit: "s", value: t2.Sub(t1).Seconds()},
				{name: "restore_s", unit: "s", value: t3.Sub(t2).Seconds()},
				{name: "query_s", unit: "s", value: t4.Sub(t3).Seconds()},
			},
			hash: func() string { return mfv.DataplaneHash(live.AFTs) },
			check: func() error {
				if tr != nil {
					recordEmulation(tr, live, o)
					if fi, err := os.Stat(path); err == nil {
						tr.add("store.snapshot_bytes", float64(fi.Size()))
					}
				}
				if len(loops) > 0 {
					return fmt.Errorf("%d forwarding loops in the restored dataplane", len(loops))
				}
				if got, want := mfv.DataplaneHash(restored.AFTs), mfv.DataplaneHash(live.AFTs); got != want {
					return fmt.Errorf("restored DataplaneHash %.12s differs from the live %.12s", got, want)
				}
				if len(diffs) == 0 {
					return fmt.Errorf("withdrawing %d prefixes changed no flow", len(withdrawn))
				}
				for _, d := range diffs {
					if !covered(withdrawn, d.Dst) {
						return fmt.Errorf("flow %v changed but no withdrawn prefix covers %v", d, d.Dst)
					}
				}
				return nil
			},
			release: release,
		}, nil
	}
	return w, nil
}
