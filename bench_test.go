package mfv

// Benchmarks regenerating the paper's evaluation (one per experiment id in
// DESIGN.md) plus ablations of the design choices called out there. Run:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics carry the experiment's headline numbers so a
// bench run doubles as a results table (virtual seconds, flows, lines).

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"mfv/internal/aft"
	"mfv/internal/bgp"
	"mfv/internal/config/eos"
	"mfv/internal/kube"
	"mfv/internal/routing"
	"mfv/internal/sim"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

func mustRun(b *testing.B, snap Snapshot, opts Options) *Result {
	b.Helper()
	res, err := Run(snap, opts)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkE1_DifferentialReachability: the exhaustive differential query
// over the Fig. 2 healthy vs buggy dataplanes. The two pipeline runs are
// untimed setup — E1's verification cost is dominated by dataplane query
// time, which is what the batch engine (memoization + worker pool)
// accelerates. BenchmarkE1_PipelineEndToEnd keeps the full-pipeline number.
func BenchmarkE1_DifferentialReachability(b *testing.B) {
	good := mustRun(b, Snapshot{Topology: Fig2()}, Options{})
	bad := mustRun(b, Snapshot{Topology: Fig2Buggy()}, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diffs := DifferentialReachability(good, bad)
		lost := 0
		for _, d := range diffs {
			if (d.Src == "r3" || d.Src == "r4") && d.Lost() {
				lost++
			}
		}
		if lost < 4 {
			b.Fatalf("AS3 lost flows = %d, want >= 4", lost)
		}
		b.ReportMetric(float64(len(diffs)), "changed-flows")
	}
}

// BenchmarkE1_PipelineEndToEnd: Fig. 2 healthy vs buggy snapshot, full
// pipeline both sides plus the differential query (the pre-engine E1 body).
func BenchmarkE1_PipelineEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		good := mustRun(b, Snapshot{Topology: Fig2()}, Options{})
		bad := mustRun(b, Snapshot{Topology: Fig2Buggy()}, Options{})
		if len(DifferentialReachability(good, bad)) == 0 {
			b.Fatal("no differences")
		}
	}
}

// benchNet builds a deterministic pseudo-random dataplane (ring topology,
// arbitrary AFTs) big enough that the batch engine's sharding and
// memoization dominate: ~1k equivalence classes across 24 sources.
func benchNet(b *testing.B, seed int64) *verify.Network {
	b.Helper()
	const nodes, prefixes = 24, 40
	r := rand.New(rand.NewSource(seed))
	topo := topology.Ring(nodes, VendorEOS)
	afts := map[string]*aft.AFT{}
	for i := 1; i <= nodes; i++ {
		name := fmt.Sprintf("r%d", i)
		bld := aft.NewBuilder(name)
		for p := 0; p < prefixes; p++ {
			var a [4]byte
			r.Read(a[:])
			prefix := netip.PrefixFrom(netip.AddrFrom4(a), 1+r.Intn(32)).Masked()
			var idx uint64
			switch r.Intn(4) {
			case 0:
				idx = bld.AddNextHop(aft.NextHop{Receive: true})
			case 1:
				idx = bld.AddNextHop(aft.NextHop{Drop: true})
			case 2:
				idx = bld.AddNextHop(aft.NextHop{Interface: "Ethernet1", IPAddress: "10.0.0.1"})
			default:
				idx = bld.AddNextHop(aft.NextHop{Interface: "Ethernet2", IPAddress: "10.0.0.2"})
			}
			bld.AddIPv4(prefix, bld.AddGroup([]uint64{idx}), "bench", 0)
		}
		afts[name] = bld.Build()
	}
	n, err := verify.NewNetwork(topo, afts)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkBatchDifferential measures the batch engine on a synthetic
// ~24k-flow differential at several worker-pool sizes. Fresh networks every
// iteration so each measurement is a cold (unmemoized) query; outputs are
// byte-identical across the sub-benchmarks.
func BenchmarkBatchDifferential(b *testing.B) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			q := BatchQueries{Workers: workers}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before, after := benchNet(b, 101), benchNet(b, 202)
				b.StartTimer()
				if len(q.Differential(before, after)) == 0 {
					b.Fatal("no differences on distinct random dataplanes")
				}
			}
		})
	}
}

// BenchmarkE2_ModelCoverage: partial-parser coverage over the Fig. 2
// configs (the 38-42 of 62-82 lines statistic).
func BenchmarkE2_ModelCoverage(b *testing.B) {
	topo := Fig2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mustRun(b, Snapshot{Topology: topo}, Options{Backend: BackendModel})
		totalUn := 0
		for _, n := range topo.Nodes {
			cov := res.Coverage[n.Name]
			un := cov.UnrecognizedCount()
			if un < 38 || un > 42 {
				b.Fatalf("%s unrecognized = %d, want 38-42", n.Name, un)
			}
			totalUn += un
			if t := eos.CountConfigLines(n.Config); t < 62 || t > 82 {
				b.Fatalf("%s total = %d, want 62-82", n.Name, t)
			}
		}
		b.ReportMetric(float64(totalUn)/6, "unrecognized-lines/device")
	}
}

// BenchmarkE3_ModelGap: both backends on the Fig. 3 configs plus the
// cross-backend differential.
func BenchmarkE3_ModelGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := Fig3()
		emu := mustRun(b, Snapshot{Topology: topo}, Options{})
		mdl := mustRun(b, Snapshot{Topology: topo}, Options{Backend: BackendModel})
		if mdl.Network.Reachable("r2", netip.MustParseAddr("2.2.2.1")) {
			b.Fatal("model hole absent")
		}
		if !emu.Network.Reachable("r2", netip.MustParseAddr("2.2.2.1")) {
			b.Fatal("emulation reachability absent")
		}
		diffs := DifferentialReachability(mdl, emu)
		if len(diffs) == 0 {
			b.Fatal("no cross-backend divergence")
		}
		b.ReportMetric(float64(len(diffs)), "diverging-flows")
	}
}

// BenchmarkE4_SingleNodeScale: bin-packing routers onto one e2-standard-32.
func BenchmarkE4_SingleNodeScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		c := kube.NewCluster(s, kube.E2Standard32("n1"))
		placed := 0
		for {
			if _, err := c.Schedule(kube.AristaCEOSRequest(fmt.Sprintf("r%d", placed), time.Minute)); err != nil {
				break
			}
			placed++
		}
		if placed < 55 {
			b.Fatalf("placed %d routers, want ~60", placed)
		}
		b.ReportMetric(float64(placed), "routers/node")
	}
}

// BenchmarkE5_ClusterScale: 1,000 pods across a 17-node cluster, booted to
// Running on the virtual clock.
func BenchmarkE5_ClusterScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		specs := make([]kube.NodeSpec, 17)
		for j := range specs {
			specs[j] = kube.E2Standard32(fmt.Sprintf("n%d", j))
		}
		c := kube.NewCluster(s, specs...)
		for j := 0; j < 1000; j++ {
			if _, err := c.Schedule(kube.AristaCEOSRequest(fmt.Sprintf("r%d", j), 90*time.Second)); err != nil {
				b.Fatal(err)
			}
		}
		s.Run()
		if !c.AllRunning() {
			b.Fatal("pods not all Running")
		}
		b.ReportMetric(1000, "pods")
	}
}

// BenchmarkE6_Convergence: the 30-node multi-vendor WAN with an injected
// table (bench-sized at 20k prefixes; benchtab runs the full 200k). The
// reported metric is virtual convergence time after startup.
func BenchmarkE6_Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := WAN(30, true)
		feeds := NewFeedGenerator(7).FullTable(64700, 20000)
		res := mustRun(b, Snapshot{
			Topology: topo,
			Feeds: []InjectedFeed{{
				Router: topo.Nodes[0].Name, PeerAddr: netip.MustParseAddr("198.51.100.1"),
				PeerAS: 64700, Feeds: feeds,
			}},
		}, Options{})
		if res.StartupAt < 12*time.Minute || res.StartupAt > 17*time.Minute {
			b.Fatalf("startup %v outside the 12-17 min window", res.StartupAt)
		}
		b.ReportMetric((res.ConvergedAt - res.StartupAt).Seconds(), "virtual-conv-s")
		b.ReportMetric(res.StartupAt.Seconds(), "virtual-startup-s")
	}
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblation_ECvsEnumeration compares equivalence-class-based
// differential verification against naive per-address probing on the Fig. 2
// snapshot pair.
func BenchmarkAblation_ECvsEnumeration(b *testing.B) {
	good, err := Run(Snapshot{Topology: Fig2()}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	bad, err := Run(Snapshot{Topology: Fig2Buggy()}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("equivalence-classes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(DifferentialReachability(good, bad)) == 0 {
				b.Fatal("no diffs")
			}
		}
	})
	b.Run("naive-4096-probes", func(b *testing.B) {
		// Probe a fixed 4096-address sample instead of computing classes:
		// strictly more traces for strictly less coverage.
		var probes []netip.Addr
		for i := 0; i < 4096; i++ {
			probes = append(probes, netip.AddrFrom4([4]byte{byte(i >> 4), byte(i * 7), byte(i * 13), 1}))
		}
		srcs := good.Network.Devices()
		for i := 0; i < b.N; i++ {
			found := 0
			for _, src := range srcs {
				for _, p := range probes {
					if good.Network.Trace(src, p).Outcome().String() != bad.Network.Trace(src, p).Outcome().String() {
						found++
					}
				}
			}
			_ = found
		}
	})
}

// BenchmarkAblation_LPM compares the binary trie against a linear scan at
// full-table scale (10k prefixes).
func BenchmarkAblation_LPM(b *testing.B) {
	gen := NewFeedGenerator(3)
	prefixes := gen.Prefixes(10000)
	trie := routing.NewTrie[int]()
	for i, p := range prefixes {
		trie.Insert(p, i)
	}
	probes := make([]netip.Addr, 1024)
	for i := range probes {
		probes[i] = prefixes[(i*37)%len(prefixes)].Addr()
	}
	b.Run("trie", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			trie.Lookup(probes[i%len(probes)])
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			addr := probes[i%len(probes)]
			best := -1
			bestLen := -1
			for j, p := range prefixes {
				if p.Contains(addr) && p.Bits() > bestLen {
					best, bestLen = j, p.Bits()
				}
			}
			_ = best
		}
	})
}

// BenchmarkAblation_ConvergenceHold sweeps the dataplane-stabilization
// window and reports the detected convergence point: too-short holds
// declare convergence early (wrong), long holds only delay detection.
func BenchmarkAblation_ConvergenceHold(b *testing.B) {
	for _, hold := range []time.Duration{5 * time.Second, 30 * time.Second, 2 * time.Minute} {
		b.Run(hold.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mustRun(b, Snapshot{Topology: Fig3()}, Options{ConvergenceHold: hold})
				b.ReportMetric(res.ConvergedAt.Seconds(), "virtual-converged-s")
			}
		})
	}
}

// BenchmarkAblation_TCPvsEventTransport runs the same BGP session + 500
// route transfer over the deterministic event transport and over a real
// TCP loopback connection.
func BenchmarkAblation_TCPvsEventTransport(b *testing.B) {
	routes := NewFeedGenerator(9).Prefixes(500)

	b.Run("event-transport", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.New(1)
			mk := func(name string, asn uint32, id string) *bgp.Speaker {
				return bgp.NewSpeaker(bgp.Config{
					Hostname: name, ASN: asn, RouterID: netip.MustParseAddr(id), Clock: s,
					Resolver: bgp.ResolverFunc(func(netip.Addr) (uint32, bool) { return 1, true }),
				})
			}
			s1 := mk("r1", 65001, "1.1.1.1")
			s2 := mk("r2", 65002, "2.2.2.2")
			a1, a2 := netip.MustParseAddr("10.0.0.0"), netip.MustParseAddr("10.0.0.1")
			p1 := s1.AddPeer(bgp.PeerConfig{Addr: a2, LocalAddr: a1, RemoteAS: 65002})
			p2 := s2.AddPeer(bgp.PeerConfig{Addr: a1, LocalAddr: a2, RemoteAS: 65001})
			p1.TransportUp(func(m []byte) {
				d := append([]byte{}, m...)
				s.After(time.Millisecond, func() { s2.HandleMessage(a1, d) })
			})
			p2.TransportUp(func(m []byte) {
				d := append([]byte{}, m...)
				s.After(time.Millisecond, func() { s1.HandleMessage(a2, d) })
			})
			for _, p := range routes {
				s1.Originate(p, bgp.PathAttrs{})
			}
			s.RunFor(time.Minute)
			if s2.LocRIBSize() != len(routes) {
				b.Fatalf("transferred %d routes", s2.LocRIBSize())
			}
		}
	})

	b.Run("tcp-transport", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sim.New(1)
			driver := bgp.NewDriver(s)
			mk := func(name string, asn uint32, id string) *bgp.Speaker {
				return bgp.NewSpeaker(bgp.Config{
					Hostname: name, ASN: asn, RouterID: netip.MustParseAddr(id), Clock: s,
					Resolver: bgp.ResolverFunc(func(netip.Addr) (uint32, bool) { return 1, true }),
				})
			}
			s1 := mk("r1", 65001, "1.1.1.1")
			s2 := mk("r2", 65002, "2.2.2.2")
			a1, a2 := netip.MustParseAddr("127.0.0.1"), netip.MustParseAddr("127.0.0.2")
			driver.Locked(func() {
				s1.AddPeer(bgp.PeerConfig{Addr: a2, LocalAddr: a1, RemoteAS: 65002})
				s2.AddPeer(bgp.PeerConfig{Addr: a1, LocalAddr: a2, RemoteAS: 65001})
				for _, p := range routes {
					s1.Originate(p, bgp.PathAttrs{})
				}
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			accepted := make(chan net.Conn, 1)
			go func() {
				c, err := ln.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			dialed, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			server := <-accepted
			driver.Attach(s1, a2, dialed)
			driver.Attach(s2, a1, server)
			driver.Start(time.Millisecond)
			deadline := time.Now().Add(10 * time.Second)
			for {
				var done bool
				driver.Locked(func() { done = s2.LocRIBSize() == len(routes) })
				if done {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("TCP transfer timed out")
				}
				time.Sleep(2 * time.Millisecond)
			}
			dialed.Close()
			server.Close()
			ln.Close()
			driver.Stop()
		}
	})
}

// BenchmarkVerifyAllPairs measures the exhaustive all-pairs matrix on the
// converged Fig. 2 network.
func BenchmarkVerifyAllPairs(b *testing.B) {
	res, err := Run(Snapshot{Topology: Fig2()}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := res.Network.AllPairs()
		// Loopbacks must be fully meshed; transfer-net /31s are local to
		// their links and legitimately unreachable from remote ASes.
		for _, src := range m.Sources {
			for j := 1; j <= 6; j++ {
				lo := netip.MustParseAddr(fmt.Sprintf("2.2.2.%d", j))
				if !m.Reach[src][lo] {
					b.Fatalf("%s cannot reach %v", src, lo)
				}
			}
		}
	}
}

// BenchmarkGNMIExtraction measures pulling all AFTs over the TCP management
// service versus in-process extraction.
func BenchmarkGNMIExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := mustRun(b, Snapshot{Topology: Fig3()}, Options{UseGNMI: true})
		if len(res.AFTs) != 3 {
			b.Fatal("missing AFTs")
		}
	}
}

// BenchmarkObsOverhead measures the observability layer's cost on the E1
// pipeline body: nil observer (instrumented code, sink disabled) versus a
// metrics-only sink versus full trace collection. The disabled case is the
// one that must stay within noise of the pre-instrumentation pipeline.
func BenchmarkObsOverhead(b *testing.B) {
	body := func(b *testing.B, mk func() *Observer) {
		for i := 0; i < b.N; i++ {
			var o *Observer
			if mk != nil {
				o = mk()
			}
			good := mustRun(b, Snapshot{Topology: Fig2()}, Options{Obs: o})
			bad := mustRun(b, Snapshot{Topology: Fig2Buggy()}, Options{})
			if len(DifferentialReachability(good, bad)) == 0 {
				b.Fatal("no differences")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { body(b, nil) })
	b.Run("metrics", func(b *testing.B) { body(b, NewMetricsObserver) })
	b.Run("trace", func(b *testing.B) { body(b, NewObserver) })
	// E11: the live-telemetry case — a metrics-only sink with one attached
	// subscriber, as `mfv run -listen` configures it. Measures the event-bus
	// fan-out (wall stamping + buffered send) on top of the metrics cost.
	b.Run("live", func(b *testing.B) {
		body(b, func() *Observer {
			o := NewMetricsObserver()
			sub := o.Subscribe(256)
			go func() {
				for range sub.Events() {
				}
			}()
			b.Cleanup(sub.Close)
			return o
		})
	})
}
