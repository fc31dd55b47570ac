package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mfv/internal/kne"
	"mfv/internal/obs"
	"mfv/internal/snapchain"
	"mfv/internal/store"
	"mfv/internal/topology"
	"mfv/internal/verify"
)

// alignQuantum is the candidate-start alignment grid: the least common
// multiple of every aligned periodic timer in the stack (session probe 5s,
// ISIS hello 10s, BGP keepalive 30s, RSVP refresh 30s and 3m). Each candidate
// is injected at a multiple of this quantum, so the phase of every periodic
// timer relative to the injection instant is a constant — together with the
// per-candidate RNG reseed, a candidate's settle timeline becomes a pure
// function of (baseline content, candidate), independent of which emulator
// lane evaluates it or what was evaluated before it. That is what makes the
// replica-partitioned sweep byte-identical to the sequential one.
const alignQuantum = 3 * time.Minute

// replicaBytesPerRouter is the memory-budget model for one replica lane:
// a full emulation (control-plane state, RIBs, rendered AFTs, pod bookkeeping)
// retains roughly a quarter megabyte per router at WAN scale. The pool is
// capped at MemoryBudget / (routers × replicaBytesPerRouter) lanes.
const replicaBytesPerRouter = 256 << 10

// defaultMemoryBudget bounds the replica pool at 8 GiB unless overridden.
const defaultMemoryBudget int64 = 8 << 30

// journalChunkSize is the durability granularity of a journaled sweep: each
// phase is processed in contiguous canonical-order chunks of this many
// candidates, with verification and an fsynced journal flush at each chunk
// barrier. A crash loses at most one in-flight chunk. Chunks are canonical
// prefixes, so the fingerprint-dedup walk (representative assignment) is
// provably identical to the unjournaled single-barrier walk.
const journalChunkSize = 32

// defaultRetryBudget caps re-attempts of a candidate whose evaluation
// panicked before the candidate is poisoned.
const defaultRetryBudget = 3

// Enumerate lists the failure elements of the requested kinds present in the
// healthy emulation, in canonical order (links, then nodes, then BGP; each
// group sorted by description). Elements that are already failed — downed
// links, down or quarantined routers — are excluded: the sweep explores
// failures of the healthy baseline, and "failing" them again would roll back
// into a state the baseline never had.
func Enumerate(em *kne.Emulator, topo *topology.Topology, kinds []Kind) []Element {
	if len(kinds) == 0 {
		kinds = AllKinds()
	}
	want := map[Kind]bool{}
	for _, k := range kinds {
		want[k] = true
	}
	unusable := func(name string) bool {
		if em.RouterDown(name) {
			return true
		}
		_, q := em.QuarantineReason(name)
		return q
	}
	var out []Element
	appendSorted := func(group []Element) {
		sort.Slice(group, func(i, j int) bool { return group[i].Describe() < group[j].Describe() })
		out = append(out, group...)
	}
	if want[KindLink] {
		var group []Element
		for _, l := range topo.Links {
			if em.IsLinkDown(l.A) {
				continue
			}
			group = append(group, Element{Kind: KindLink, Link: l.A.String()})
		}
		appendSorted(group)
	}
	if want[KindNode] {
		var group []Element
		for _, r := range em.Routers() {
			if unusable(r.Name) {
				continue
			}
			group = append(group, Element{Kind: KindNode, Node: r.Name})
		}
		appendSorted(group)
	}
	if want[KindBGP] {
		var group []Element
		for _, r := range em.Routers() {
			if r.BGP == nil || unusable(r.Name) {
				continue
			}
			group = append(group, Element{Kind: KindBGP, Node: r.Name})
		}
		appendSorted(group)
	}
	return out
}

// verdict is a candidate's verification result in self-contained, journalable
// form: the counts the report ranks on plus the rendered (capped) diff
// sample. Live verify.Diff values need the in-memory baseline and impact
// networks; a verdict does not, which is what lets a resumed sweep restore
// rows without re-running emulation or verification.
type verdict struct {
	Lost    int
	Changed int
	Diffs   []string
}

// outcome carries one candidate's measurements through the two phases:
// the apply/settle/rollback lanes fill everything except verdict, which the
// parallel verification phase computes (or copies from the fingerprint
// representative), or journal restore supplies whole.
type outcome struct {
	cand        Candidate
	base        snapchain.Snap // healthy baseline this candidate was measured against
	impact      snapchain.Snap // settled degraded state
	dirty       []string       // routers whose FIB the failure touched
	fp          string         // equivalence-group fingerprint
	reconv      time.Duration
	stragglers  []string
	quarantined []string
	residue     int      // flows still diverging after rollback
	pruned      string   // "", "fingerprint", "independent"
	dupOf       *outcome // representative whose verdict this candidate shares
	verdict     *verdict
	// restored marks an outcome rebuilt from a journal entry (not evaluated
	// or verified in this process).
	restored bool
	// wasRep marks an outcome that ran (or, restored, had run) its own
	// verification; restored reps count toward Report.Verified.
	wasRep bool
	// poisoned, when non-empty, records the final panic message of a
	// candidate that exhausted the retry budget.
	poisoned string
}

// replica is one lane of the emulation pool: an emulator (the primary, or a
// deterministic replay of it), its own snapshot chain, and its own
// baseline-epoch counter. Lanes never share mutable state; candidates are
// partitioned across lanes by canonical index and merged back by slot.
type replica struct {
	id    int
	em    *kne.Emulator
	chain *snapchain.Chain
	// epoch counts baseline content drifts observed on THIS lane. While it
	// is zero the lane's baseline is the canonical converged state shared by
	// every lane, so fingerprint verdicts may be shared across lanes; once a
	// lane drifts, its fingerprints are tagged with the lane identity and
	// never shared across lanes (see engine.fingerprint).
	epoch int
	// label is the precomputed metric label for this lane.
	label string
	// candidates counts evaluations on this lane (reported via the
	// sweep_replica_candidates_total{replica=} counter).
	candidates atomic.Int64
	// owned marks emulators the engine booted (replicas, rebuilt lanes):
	// the engine stops them on teardown. The caller-owned primary is never
	// stopped.
	owned bool
	// broken condemns the lane for the rest of the current round ("panic" or
	// "drift"); healPool rebuilds or retires condemned lanes between rounds.
	// Written only by the lane's own goroutine during a round and by
	// healPool between rounds.
	broken string
	// dead removes the lane from service permanently (a panicked lane whose
	// rebuild failed — its emulator may hold half-applied faults).
	dead bool
}

type engine struct {
	em      *kne.Emulator
	topo    *topology.Topology
	obs     *obs.Observer
	chain   *snapchain.Chain
	opts    Options
	hold    time.Duration
	timeout time.Duration

	// pool holds the emulation lanes; pool[0] starts as the primary (it may
	// be replaced by an owned rebuild if the primary lane fails mid-sweep).
	pool []*replica
	// failed flags a fatal lane error so other lanes stop picking up work.
	failed atomic.Bool
	// baseFP is the primary's state fingerprint at the canonical converged
	// baseline, captured before any candidate runs: the gate every rebuilt
	// lane must match.
	baseFP string
	// mu guards the retry/poison bookkeeping lanes touch concurrently.
	mu sync.Mutex

	// repByFP maps fingerprint -> the verified representative outcome.
	repByFP map[string]*outcome

	verified int

	// journal, when non-nil, receives every verdict at chunk barriers;
	// resumed holds the journal entries of a resumed run, keyed by canonical
	// candidate description.
	journal *store.Journal
	resumed map[string]store.JournalEntry
}

// Run sweeps the emulation. The emulator must be started and converged; the
// sweep advances virtual time itself and leaves the network restored (any
// candidate that failed to heal is reported via Residue).
func Run(em *kne.Emulator, topo *topology.Topology, opts Options) (*Report, error) {
	if opts.K < 1 || opts.K > 2 {
		return nil, fmt.Errorf("sweep: k=%d unsupported (want 1 or 2)", opts.K)
	}
	if len(opts.Kinds) == 0 {
		opts.Kinds = AllKinds()
	}
	e := &engine{
		em:      em,
		topo:    topo,
		obs:     opts.Obs,
		chain:   snapchain.New(em, topo, opts.Obs),
		opts:    opts,
		hold:    opts.Hold,
		timeout: opts.Timeout,
		repByFP: map[string]*outcome{},
	}
	if e.hold == 0 {
		// Same floor as the chaos engine: the quiet window must outlast
		// the BGP HoldTime (90s) or silent link cuts settle "harmlessly"
		// before their withdrawals begin.
		e.hold = 2 * time.Minute
	}
	if e.timeout == 0 {
		e.timeout = 30 * time.Minute
	}
	e.chain.SetWorkers(opts.Workers)

	wallStart := time.Now()
	span := e.obs.StartPhase("sweep")
	defer span.End()

	if _, err := e.chain.Snapshot(); err != nil {
		return nil, err
	}
	e.baseFP = em.StateFingerprint()
	elems := Enumerate(em, topo, opts.Kinds)
	rep := &Report{
		K:         opts.K,
		Kinds:     opts.Kinds,
		Routers:   len(em.Routers()),
		StartedAt: em.Sim().Now(),
	}

	if err := e.openJournal(elems); err != nil {
		return nil, err
	}
	if e.journal != nil {
		defer e.journal.Close()
	}

	e.buildPool(len(elems))
	defer e.stopPool()
	rep.Replicas = len(e.pool)
	e.obs.Metrics().Gauge("sweep_replicas").Set(int64(len(e.pool)))

	// Phase 1: apply every k=1 candidate across the replica pool, each lane
	// chaining rollbacks on its own emulator. Verification (and journaling)
	// happens inside the phase at chunk barriers; by the time the phase
	// returns, every evaluated k=1 candidate carries its verdict — which the
	// pair-enumeration independence prune consumes.
	cands := make([]Candidate, len(elems))
	for i, el := range elems {
		cands[i] = Candidate{Elements: []Element{el}}
	}
	k1 := make([]*outcome, len(cands))
	e.restoreSlots(cands, k1)
	interrupted, err := e.runPhase(cands, k1, 0)
	if err != nil {
		return nil, err
	}
	rep.Interrupted = interrupted
	all := e.merge(k1)

	if opts.K >= 2 && !rep.Interrupted {
		single := map[string]*outcome{}
		for _, o := range all {
			single[o.cand.Elements[0].Describe()] = o
		}
		// Enumerate pairs in canonical order, deciding prunes up front from
		// the merged k=1 verdicts; surviving pairs partition across lanes.
		var pairCands []Candidate
		var pairOut []*outcome
		for i := 0; i < len(elems); i++ {
			for j := i + 1; j < len(elems); j++ {
				if sameTarget(elems[i], elems[j]) {
					continue
				}
				cand := Candidate{Elements: []Element{elems[i], elems[j]}}
				a, b := single[elems[i].Describe()], single[elems[j].Describe()]
				if !opts.Brute && independentlyHarmless(a, b) {
					pairCands = append(pairCands, cand)
					pairOut = append(pairOut, &outcome{cand: cand, pruned: "independent"})
					continue
				}
				pairCands = append(pairCands, cand)
				pairOut = append(pairOut, nil)
			}
		}
		e.restoreSlots(pairCands, pairOut)
		interrupted, err := e.runPhase(pairCands, pairOut, len(cands))
		if err != nil {
			return nil, err
		}
		rep.Interrupted = rep.Interrupted || interrupted
		all = append(all, e.merge(pairOut)...)
	}

	rep.FinishedAt = em.Sim().Now()
	rep.Wall = time.Since(wallStart)
	e.assemble(rep, all)
	return rep, nil
}

// buildPool sizes and constructs the emulation lanes. The desired size is
// Replicas (or Workers when unset), capped by the candidate count and the
// memory budget. Replica construction failure is never fatal: the sweep
// degrades to the single-lane sequential path, which is always correct.
func (e *engine) buildPool(nCands int) {
	want := e.opts.Replicas
	if want == 0 {
		want = e.opts.Workers
	}
	if want <= 0 {
		want = runtime.GOMAXPROCS(0)
	}
	if want > nCands {
		want = nCands
	}
	budget := e.opts.MemoryBudget
	if budget <= 0 {
		budget = defaultMemoryBudget
	}
	if per := int64(len(e.em.Routers())) * replicaBytesPerRouter; per > 0 {
		if max := int(budget / per); want > max {
			want = max
		}
	}
	if want < 1 {
		want = 1
	}
	e.pool = []*replica{{id: 0, em: e.em, chain: e.chain, label: "0"}}
	if want == 1 {
		return
	}
	build := e.opts.BuildReplicas
	if build == nil {
		build = e.defaultBuildReplicas
	}
	ems, err := build(want - 1)
	if err != nil || len(ems) == 0 {
		e.obs.Metrics().Counter("sweep_replica_fallback_total").Inc()
		return
	}
	for _, rem := range ems {
		chain := e.chain.Fork(rem)
		if _, err := chain.Snapshot(); err != nil {
			e.obs.Metrics().Counter("sweep_replica_fallback_total").Inc()
			for _, x := range ems {
				x.Stop()
			}
			e.pool = e.pool[:1]
			return
		}
		id := len(e.pool)
		e.pool = append(e.pool, &replica{id: id, em: rem, chain: chain, label: fmt.Sprint(id), owned: true})
	}
}

// defaultBuildReplicas is the generic pool factory: deterministic replay via
// kne.Emulator.Replica on a local worker pool, each replica gated on the
// canonical converged baseline fingerprint (captured before any candidate
// ran, so mid-sweep rebuilds cannot inherit primary drift).
// core.BuildReplicas replaces it on the CLI path, where it shares the
// sharded-boot machinery.
func (e *engine) defaultBuildReplicas(n int) ([]*kne.Emulator, error) {
	want := e.baseFP
	if want == "" {
		want = e.em.StateFingerprint()
	}
	reps := make([]*kne.Emulator, n)
	errs := make([]error, n)
	runParallel(n, e.opts.Workers, func(i int) {
		rep, err := e.em.Replica(e.hold, e.timeout)
		if err != nil {
			errs[i] = err
			return
		}
		if got := rep.StateFingerprint(); got != want {
			rep.Stop()
			errs[i] = fmt.Errorf("sweep: replica %d replay diverged from the primary", i)
			return
		}
		reps[i] = rep
	})
	for _, err := range errs {
		if err != nil {
			for _, r := range reps {
				if r != nil {
					r.Stop()
				}
			}
			return nil, err
		}
	}
	return reps, nil
}

// stopPool releases every engine-owned lane emulator: the original replay
// lanes plus any rebuilt replacements (including a rebuilt primary lane).
// The caller-owned primary and already-retired dead lanes are left alone.
func (e *engine) stopPool() {
	for _, r := range e.pool {
		if r.owned && !r.dead {
			r.em.Stop()
		}
	}
}

// runPhase drives one phase (the k=1 singles or the k=2 pairs) through
// evaluation, verification, and journaling. Unjournaled sweeps process the
// whole phase as one chunk (the original single-barrier walk); journaled
// sweeps chunk it so verdicts become durable incrementally. idxBase is the
// phase's offset into the global canonical candidate index, recorded in
// journal entries. Chunks are contiguous canonical-order slices processed in
// order, so the fingerprint-dedup walk across chunk boundaries is identical
// to the single-barrier walk.
func (e *engine) runPhase(cands []Candidate, out []*outcome, idxBase int) (bool, error) {
	if len(cands) == 0 {
		return false, nil
	}
	chunk := len(cands)
	if e.journal != nil && journalChunkSize < chunk {
		chunk = journalChunkSize
	}
	interrupted := false
	for lo := 0; lo < len(cands) && !interrupted; lo += chunk {
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		var err error
		interrupted, err = e.runChunk(cands[lo:hi], out[lo:hi])
		if err != nil {
			return false, err
		}
		// Verify and journal whatever the chunk produced — on interruption
		// that is a partial chunk, and journaling it means the resumed run
		// starts exactly where this one stopped.
		e.verifyChunk(out[lo:hi])
		if err := e.journalChunk(idxBase+lo, out[lo:hi]); err != nil {
			return false, err
		}
	}
	return interrupted, nil
}

// runChunk evaluates the candidates whose slot in out is still nil, across
// the live replica lanes: lane r owns every pending index i with i ≡ r (mod
// lanes), evaluates its indices in increasing order chained on its own
// emulator, and writes each outcome into the candidate's canonical slot. The
// slot merge makes scheduling invisible: results are positionally identical
// to the sequential engine's. Interruption (Ctx) stops every lane at its next
// candidate boundary and leaves the remaining slots nil.
//
// Each round runs under lane supervision: a panic inside evaluation condemns
// the lane (recover boundary in evaluateGuarded), a baseline drift condemns
// it after its outcome is recorded, and healPool rebuilds condemned lanes
// from the converged baseline between rounds. Candidates a panicked lane left
// unfilled are requeued onto the healed pool under a per-candidate retry
// budget; a candidate that keeps panicking is poisoned — quarantined in the
// report with an empty verdict — instead of killing the sweep.
func (e *engine) runChunk(cands []Candidate, out []*outcome) (bool, error) {
	var todo []int
	for i := range cands {
		if out[i] == nil {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return false, nil
	}
	budget := e.opts.RetryBudget
	if budget <= 0 {
		budget = defaultRetryBudget
	}
	attempts := make(map[int]int)
	// Emit in canonical order (matching the merged slots), not apply order,
	// whether the chunk completes or is interrupted mid-round.
	defer e.emitCandidates(out, todo)
	for {
		var pending []int
		for _, i := range todo {
			if out[i] == nil {
				pending = append(pending, i)
			}
		}
		if len(pending) == 0 {
			return false, nil
		}
		if e.interrupted() {
			return true, nil
		}
		lanes := e.liveLanes()
		if len(lanes) == 0 {
			return false, fmt.Errorf("sweep: no usable emulation lanes remain (every lane failed and none could be rebuilt)")
		}
		interrupted, err := e.round(cands, out, pending, lanes, attempts, budget)
		if err != nil {
			return false, err
		}
		e.healPool()
		if interrupted {
			return true, nil
		}
	}
}

// round makes one supervised pass: the pending chunk indices stride across
// the given lanes. A lane stops early when condemned (panic or drift); its
// remaining indices stay nil and the next round requeues them.
func (e *engine) round(cands []Candidate, out []*outcome, pending []int, lanes []*replica, attempts map[int]int, budget int) (bool, error) {
	n := len(lanes)
	errs := make([]error, n)
	ints := make([]bool, n)
	var wg sync.WaitGroup
	for li := 0; li < n; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			lane := lanes[li]
			for j := li; j < len(pending); j += n {
				if e.interrupted() {
					ints[li] = true
					return
				}
				if e.failed.Load() {
					return
				}
				idx := pending[j]
				epochBefore := lane.epoch
				o, err := e.evaluateGuarded(lane, cands[idx])
				if err != nil {
					if pe, ok := err.(panicError); ok {
						lane.broken = "panic"
						e.recordPanic(cands[idx], idx, out, attempts, budget, pe)
						return
					}
					if e.interrupted() {
						// Cancellation surfaced mid-candidate as an evaluation
						// error. The candidate's slot stays nil (it was never
						// verified), which is exactly the interrupted-report
						// contract: journal what finished, flag the rest.
						ints[li] = true
						return
					}
					errs[li] = err
					e.failed.Store(true)
					return
				}
				out[idx] = o
				if lane.epoch > epochBefore {
					// The rollback left drifted content. The outcome stands —
					// it was measured against the pre-drift baseline — but
					// the lane needs a rebuild before taking more work.
					lane.broken = "drift"
					return
				}
			}
		}(li)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	for _, b := range ints {
		if b {
			return true, nil
		}
	}
	return false, nil
}

// recordPanic charges one panic against a candidate's retry budget; an
// exhausted budget poisons the candidate (an empty-verdict quarantined row)
// so the sweep completes without it.
func (e *engine) recordPanic(c Candidate, idx int, out []*outcome, attempts map[int]int, budget int, pe panicError) {
	e.mu.Lock()
	defer e.mu.Unlock()
	attempts[idx]++
	m := e.obs.Metrics()
	if attempts[idx] >= budget {
		out[idx] = &outcome{cand: c, poisoned: pe.Error(), verdict: &verdict{}}
		m.Counter("sweep_candidates_poisoned_total").Inc()
		return
	}
	m.Counter("sweep_candidates_retried_total").Inc()
}

// panicError wraps a recovered panic value from a lane's evaluation.
type panicError struct{ val any }

func (p panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// testHookEvaluate, when set (tests only), runs at the top of every guarded
// evaluation — inside the recover boundary — so tests can inject
// deterministic lane panics.
var testHookEvaluate func(lane int, c Candidate)

// evaluateGuarded is evaluate behind the per-lane recover boundary: a panic
// anywhere in apply/settle/snapshot/rollback surfaces as a panicError instead
// of killing the process, mirroring PR 5's per-router recover.
func (e *engine) evaluateGuarded(r *replica, c Candidate) (o *outcome, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			o, err = nil, panicError{rec}
		}
	}()
	if testHookEvaluate != nil {
		testHookEvaluate(r.id, c)
	}
	return e.evaluate(r, c)
}

// liveLanes returns the lanes still in service.
func (e *engine) liveLanes() []*replica {
	var out []*replica
	for _, r := range e.pool {
		if !r.dead {
			out = append(out, r)
		}
	}
	return out
}

// healPool processes lanes condemned during the last round. Every condemned
// lane gets a rebuild attempt from the converged baseline (counted in
// sweep_lane_restarts_total). When the rebuild fails, the outcome depends on
// why the lane was condemned: a drifted lane is still internally consistent —
// it keeps serving with epoch-tagged fingerprints, exactly the pre-
// supervision behavior — but a panicked lane may hold half-applied faults
// and is retired from service.
func (e *engine) healPool() {
	for _, lane := range e.pool {
		if lane.broken == "" || lane.dead {
			lane.broken = ""
			continue
		}
		cause := lane.broken
		lane.broken = ""
		e.obs.Metrics().Counter("sweep_lane_restarts_total", "replica", lane.label, "cause", cause).Inc()
		if e.rebuildLane(lane) {
			continue
		}
		if cause == "drift" {
			continue
		}
		if lane.owned {
			lane.em.Stop()
		}
		lane.dead = true
	}
}

// rebuildLane boots a replacement emulator for the lane via the replica
// factory, gates it on the canonical baseline fingerprint, forks it a fresh
// snapshot chain, and swaps it in (stopping the old emulator when the engine
// owned it). The lane's epoch resets to zero: its baseline is canonical
// again, so its fingerprints may be shared across lanes.
func (e *engine) rebuildLane(lane *replica) bool {
	build := e.opts.BuildReplicas
	if build == nil {
		build = e.defaultBuildReplicas
	}
	ems, err := build(1)
	if err != nil || len(ems) != 1 || ems[0] == nil {
		return false
	}
	rem := ems[0]
	if rem.StateFingerprint() != e.baseFP {
		rem.Stop()
		return false
	}
	chain := e.chain.Fork(rem)
	if _, err := chain.Snapshot(); err != nil {
		rem.Stop()
		return false
	}
	if lane.owned {
		lane.em.Stop()
	}
	lane.em, lane.chain, lane.epoch, lane.owned = rem, chain, 0, true
	return true
}

// emitCandidates publishes the per-candidate progress events for the just-
// evaluated slots in canonical candidate order. Emission is deferred to the
// phase barrier so the trace stays deterministic at any lane count.
func (e *engine) emitCandidates(out []*outcome, todo []int) {
	if !e.obs.Enabled() {
		return
	}
	for _, i := range todo {
		if o := out[i]; o != nil {
			e.obs.Emit(obs.Event{Type: obs.EvSweepCandidate, Detail: o.cand.Describe(), Value: int64(len(o.dirty))})
		}
	}
}

// merge compacts a phase's outcome slots into the canonical-order outcome
// list, dropping the slots an interruption left unevaluated.
func (e *engine) merge(out []*outcome) []*outcome {
	merged := make([]*outcome, 0, len(out))
	for _, o := range out {
		if o != nil {
			merged = append(merged, o)
		}
	}
	return merged
}

// sameTarget excludes degenerate pairs: failing a node and holding the same
// node's BGP is just the node failure.
func sameTarget(a, b Element) bool {
	return a.Node != "" && a.Node == b.Node
}

// independentlyHarmless is the k=2 independence prune: when both members
// were individually harmless in every respect (no outcome changes, clean
// rollback, no stragglers or quarantine) and their blast radii are disjoint,
// the pair is predicted harmless without being applied. This is a
// partial-order-reduction heuristic, not a proof — -brute re-verifies it.
func independentlyHarmless(a, b *outcome) bool {
	harmless := func(o *outcome) bool {
		return o != nil && o.pruned != "independent" && o.poisoned == "" &&
			o.verdict != nil && o.verdict.Changed == 0 && o.residue == 0 &&
			len(o.stragglers) == 0 && len(o.quarantined) == 0
	}
	if !harmless(a) || !harmless(b) {
		return false
	}
	seen := map[string]bool{}
	for _, d := range a.dirty {
		seen[d] = true
	}
	for _, d := range b.dirty {
		if seen[d] {
			return false
		}
	}
	return true
}

func (e *engine) interrupted() bool {
	return e.opts.Ctx != nil && e.opts.Ctx.Err() != nil
}

// candSeed derives the per-candidate RNG seed: a pure function of the
// candidate identity, so every lane (and the sequential engine) draws the
// same jitter stream while evaluating it.
func candSeed(c Candidate) int64 {
	h := fnv.New64a()
	for _, el := range c.Elements {
		io.WriteString(h, el.Describe())
		h.Write([]byte{0})
	}
	return int64(h.Sum64())
}

// evaluate applies one candidate on the given lane, settles, snapshots the
// degraded state, rolls the failure back, and verifies the rollback healed.
// The verification of the impact itself is deferred to the parallel phase.
//
// Before injection the lane's clock is advanced to the alignment grid and
// its RNG reseeded from the candidate identity, which (together with the
// globally aligned protocol timers) makes everything measured here a pure
// function of (baseline, candidate) — independent of lane and history.
func (e *engine) evaluate(r *replica, c Candidate) (*outcome, error) {
	r.em.AlignClock(alignQuantum)
	clk := r.em.Sim()
	clk.Reseed(candSeed(c))
	r.candidates.Add(1)
	e.obs.Metrics().Counter("sweep_replica_candidates_total", "replica", r.label).Inc()

	o := &outcome{cand: c, base: *r.chain.Last()}
	injected := clk.Now()
	applied := 0
	var err error
	for _, el := range c.Elements {
		if err = e.apply(r, el); err != nil {
			break
		}
		applied++
	}
	if err != nil {
		for i := applied - 1; i >= 0; i-- {
			if rbErr := e.rollback(r, c.Elements[i]); rbErr != nil {
				return nil, fmt.Errorf("sweep: %s failed (%v); rollback also failed: %w", c.Describe(), err, rbErr)
			}
		}
		return nil, fmt.Errorf("sweep: applying %s: %w", c.Describe(), err)
	}

	conv := r.em.Settle(e.hold, e.timeout)
	if o.impact, err = r.chain.Snapshot(); err != nil {
		return nil, err
	}
	o.dirty = snapchain.DiffStamps(o.base.Stamps, o.impact.Stamps)
	o.reconv = conv.ConvergedAt - injected
	if o.reconv < 0 {
		o.reconv = 0
	}
	o.stragglers = conv.Stragglers
	o.quarantined = conv.Quarantined
	o.fp = e.fingerprint(r, o)

	// Roll back in reverse order and verify the heal: the lane's next
	// candidate baseline is whatever state the rollback actually reached.
	for i := len(c.Elements) - 1; i >= 0; i-- {
		if err := e.rollback(r, c.Elements[i]); err != nil {
			return nil, fmt.Errorf("sweep: rolling back %s: %w", c.Describe(), err)
		}
	}
	r.em.Settle(e.hold, e.timeout)
	restored, err := r.chain.Snapshot()
	if err != nil {
		return nil, err
	}
	// Content check: any router whose restored AFT is not byte-identical
	// to its baseline content invalidates fingerprint sharing across this
	// boundary (see replica.epoch). Outcome check: flows still diverging are
	// real residue, reported per row.
	drifted := false
	for _, name := range snapchain.DiffStamps(o.base.Stamps, restored.Stamps) {
		bf, bok := o.base.FPs[name]
		rf, rok := restored.FPs[name]
		if !bok || !rok || bf != rf {
			drifted = true
			break
		}
	}
	if drifted {
		r.epoch++
		o.residue = len(r.chain.Differential(o.base, restored))
	}
	return o, nil
}

func (e *engine) apply(r *replica, el Element) error {
	switch el.Kind {
	case KindLink:
		ep, err := topology.ParseEndpoint(el.Link)
		if err != nil {
			return err
		}
		return r.em.SetLinkDown(ep)
	case KindNode:
		return r.em.FailRouter(el.Node)
	case KindBGP:
		return r.em.HoldBGP(el.Node)
	}
	return fmt.Errorf("sweep: unknown element kind %q", el.Kind)
}

func (e *engine) rollback(r *replica, el Element) error {
	switch el.Kind {
	case KindLink:
		ep, err := topology.ParseEndpoint(el.Link)
		if err != nil {
			return err
		}
		return r.em.SetLinkUp(ep)
	case KindNode:
		if err := r.em.RestoreRouter(el.Node); err != nil {
			return err
		}
		return r.em.AwaitRunning(el.Node, e.timeout)
	case KindBGP:
		return r.em.ReleaseBGP(el.Node)
	}
	return fmt.Errorf("sweep: unknown element kind %q", el.Kind)
}

// fingerprint keys the candidate's equivalence group: the baseline identity
// plus, for every dirty router, its baseline and impact forwarding
// fingerprints. Two candidates with equal fingerprints perturb identical
// forwarding state identically against identical baselines, so their
// differentials are equal and one verification serves both. While a lane's
// epoch is zero its baseline is the canonical converged content every lane
// shares ("epoch=0"); after a drift the group key is tagged with the lane
// identity, so candidates measured against drifted baselines never share
// verdicts across lanes.
func (e *engine) fingerprint(r *replica, o *outcome) string {
	h := sha256.New()
	if r.epoch == 0 {
		fmt.Fprintf(h, "epoch=0;")
	} else {
		fmt.Fprintf(h, "epoch=r%d.%d;", r.id, r.epoch)
	}
	for _, name := range o.dirty {
		fmt.Fprintf(h, "%s:%s>%s;", name, o.base.FPs[name], o.impact.FPs[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyChunk runs the deferred differentials for one canonical-order chunk:
// fingerprint-duplicate candidates adopt their representative's verdict, the
// representatives shard across the worker pool. Each result lands in its
// candidate's own slot, so worker count and scheduling order never affect
// output. Restored outcomes carry their journaled verdicts already; they only
// re-register their representative role (so later candidates dedup against
// them exactly as they did in the interrupted run) and re-count toward
// Verified. Because chunks are canonical prefixes processed in order, the
// repByFP state at every decision point is identical to the unjournaled
// single-barrier walk's.
func (e *engine) verifyChunk(pend []*outcome) {
	var reps []*outcome
	for _, o := range pend {
		if o == nil || o.pruned == "independent" || o.poisoned != "" {
			continue
		}
		if o.restored {
			if o.wasRep {
				e.verified++
			}
			if !e.opts.Brute && o.pruned == "" && o.fp != "" {
				if _, ok := e.repByFP[o.fp]; !ok {
					e.repByFP[o.fp] = o
				}
			}
			continue
		}
		if !e.opts.Brute {
			if r, ok := e.repByFP[o.fp]; ok {
				o.pruned = "fingerprint"
				o.dupOf = r
				continue
			}
			e.repByFP[o.fp] = o
		}
		o.wasRep = true
		reps = append(reps, o)
	}
	g := e.obs.Metrics().Gauge("sweep_inflight")
	runParallel(len(reps), e.opts.Workers, func(i int) {
		g.Add(1)
		defer g.Add(-1)
		o := reps[i]
		// One worker per candidate; the per-query pool stays at 1 so the
		// sharding happens across candidates, not within them.
		o.verdict = verdictFromDiffs(verify.Queries{Workers: 1}.DeltaDifferential(o.base.Net, o.impact.Net, o.dirty))
	})
	for _, o := range pend {
		if o != nil && o.dupOf != nil {
			o.verdict = o.dupOf.verdict
		}
	}
	e.verified += len(reps)
}

// verdictFromDiffs renders live diffs into the journalable verdict form (the
// per-row diff sample capped at maxRowDiffs, as the report displays it).
func verdictFromDiffs(diffs []verify.Diff) *verdict {
	v := &verdict{Lost: len(snapchain.LostFlows(diffs)), Changed: len(diffs)}
	for i, d := range diffs {
		if i == maxRowDiffs {
			v.Diffs = append(v.Diffs, fmt.Sprintf("… (+%d more)", len(diffs)-maxRowDiffs))
			break
		}
		v.Diffs = append(v.Diffs, d.String())
	}
	return v
}

// openJournal wires the write-ahead journal per Options: create fresh for
// JournalDir, replay-and-continue for Resume. The header pins the journal to
// this exact sweep input and baseline.
func (e *engine) openJournal(elems []Element) error {
	if e.opts.JournalDir == "" {
		if e.opts.Resume {
			return fmt.Errorf("sweep: Resume requires JournalDir")
		}
		return nil
	}
	hdr := store.JournalHeader{
		Version:  store.JournalVersion,
		Input:    e.inputHash(elems),
		Baseline: store.HashAFTs(e.chain.Last().AFTs),
	}
	path := store.SweepJournalPath(e.opts.JournalDir)
	if !e.opts.Resume {
		j, err := store.CreateJournal(path, hdr)
		if err != nil {
			return err
		}
		e.journal = j
		return nil
	}
	j, entries, err := store.ResumeJournal(path, hdr)
	if err != nil {
		return err
	}
	e.journal = j
	e.resumed = make(map[string]store.JournalEntry, len(entries))
	for _, ent := range entries {
		e.resumed[ent.Cand] = ent
	}
	return nil
}

// inputHash digests everything that determines the candidate set and each
// candidate's verdict: topology, emulation seed, sweep shape, budgets, and
// the canonical element list. Journals are only resumable under an equal
// hash.
func (e *engine) inputHash(elems []Element) string {
	h := sha256.New()
	if b, err := e.topo.Marshal(); err == nil {
		h.Write(b)
	}
	fmt.Fprintf(h, ";seed=%d;k=%d;kinds=%v;brute=%v;hold=%v;timeout=%v;",
		e.em.Sim().Seed(), e.opts.K, e.opts.Kinds, e.opts.Brute, e.hold, e.timeout)
	for _, el := range elems {
		fmt.Fprintf(h, "%s;", el.Describe())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// restoreSlots pre-fills candidate slots from the resumed journal. Slots the
// pair enumeration already decided (independent prunes) are marked restored
// when journaled, so they are not re-journaled. Because the journal is a
// canonical prefix, the restored set is exactly "everything the interrupted
// run completed".
func (e *engine) restoreSlots(cands []Candidate, out []*outcome) {
	if len(e.resumed) == 0 {
		return
	}
	m := e.obs.Metrics()
	for i := range cands {
		ent, ok := e.resumed[cands[i].Describe()]
		if !ok {
			continue
		}
		if out[i] != nil {
			out[i].restored = true
			continue
		}
		out[i] = &outcome{
			cand:        cands[i],
			fp:          ent.FP,
			dirty:       ent.Dirty,
			reconv:      time.Duration(ent.ReconvNS),
			stragglers:  ent.Stragglers,
			quarantined: ent.Quarantined,
			residue:     ent.Residue,
			pruned:      ent.Pruned,
			poisoned:    ent.Poisoned,
			restored:    true,
			wasRep:      ent.Rep,
			verdict:     &verdict{Lost: ent.Lost, Changed: ent.Changed, Diffs: ent.Diffs},
		}
		m.Counter("sweep_candidates_restored_total").Inc()
	}
}

// journalChunk appends the chunk's newly produced verdicts (canonical order,
// restored entries excluded) and fsyncs — the chunk's durability barrier.
func (e *engine) journalChunk(idxBase int, pend []*outcome) error {
	if e.journal == nil {
		return nil
	}
	wrote := false
	for i, o := range pend {
		if o == nil || o.restored {
			continue
		}
		v := o.verdict
		if v == nil {
			v = &verdict{}
		}
		ent := store.JournalEntry{
			Index:       idxBase + i,
			Cand:        o.cand.Describe(),
			FP:          o.fp,
			Rep:         o.wasRep,
			Dirty:       o.dirty,
			ReconvNS:    int64(o.reconv),
			Stragglers:  o.stragglers,
			Quarantined: o.quarantined,
			Residue:     o.residue,
			Pruned:      o.pruned,
			Poisoned:    o.poisoned,
			Lost:        v.Lost,
			Changed:     v.Changed,
			Diffs:       v.Diffs,
		}
		if err := e.journal.Append(ent); err != nil {
			return err
		}
		wrote = true
	}
	if !wrote {
		return nil
	}
	return e.journal.Sync()
}

// runParallel evaluates fn(i) for i in [0, n) across a bounded pool. Indexed
// slots keep results deterministic.
func runParallel(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// assemble ranks the outcomes worst-first into the report and emits the
// final metrics and verdict events in rank order.
func (e *engine) assemble(rep *Report, all []*outcome) {
	m := e.obs.Metrics()
	rep.Candidates = len(all)
	rep.Verified = e.verified
	for _, o := range all {
		label := "none"
		switch o.pruned {
		case "fingerprint":
			label = "fingerprint"
			rep.PrunedFingerprint++
			rep.Applied++
		case "independent":
			label = "independent"
			rep.PrunedIndependent++
		default:
			rep.Applied++
		}
		m.Counter("sweep_candidates_total", "pruned", label).Inc()
		if o.pruned != "independent" && o.poisoned == "" {
			m.Histogram("sweep_reconverge_ns", "k", fmt.Sprint(len(o.cand.Elements))).Observe(int64(o.reconv))
		}
		v := o.verdict
		if v == nil {
			v = &verdict{}
		}
		row := Row{
			Failure:       o.cand.Describe(),
			K:             len(o.cand.Elements),
			FlowsLost:     v.Lost,
			FlowsChanged:  v.Changed,
			DirtyRouters:  len(o.dirty),
			ReconvergedIn: o.reconv,
			Stragglers:    o.stragglers,
			Quarantined:   o.quarantined,
			Residue:       o.residue,
			Pruned:        o.pruned,
			Poisoned:      o.poisoned,
			Diffs:         v.Diffs,
		}
		if row.Poisoned != "" {
			rep.Poisoned++
		}
		if row.FlowsLost > 0 {
			rep.Violations++
			m.Counter("sweep_violations_total").Inc()
		}
		if row.Residue > 0 {
			rep.Residue++
		}
		rep.Rows = append(rep.Rows, row)
	}
	sort.SliceStable(rep.Rows, func(i, j int) bool {
		a, b := rep.Rows[i], rep.Rows[j]
		if a.FlowsLost != b.FlowsLost {
			return a.FlowsLost > b.FlowsLost
		}
		if a.FlowsChanged != b.FlowsChanged {
			return a.FlowsChanged > b.FlowsChanged
		}
		if a.DirtyRouters != b.DirtyRouters {
			return a.DirtyRouters > b.DirtyRouters
		}
		if a.ReconvergedIn != b.ReconvergedIn {
			return a.ReconvergedIn > b.ReconvergedIn
		}
		return a.Failure < b.Failure
	})
	for i := range rep.Rows {
		rep.Rows[i].Rank = i + 1
		if e.obs.Enabled() {
			e.obs.Emit(obs.Event{Type: obs.EvSweepVerdict, Detail: rep.Rows[i].Failure, Value: int64(rep.Rows[i].FlowsLost)})
		}
	}
}
