package main

import (
	"math/rand"
	"slices"
	"strconv"
	"time"
)

// The host the benchmark runs on is shared, and its speed drifts between
// runs: the same op on the same input can take a third longer in one run
// than in the next, in CPU time as well as in wall time. So the runner also
// times a fixed reference computation between ops and reports op time in
// multiples of it. Drift slows both alike and cancels in the ratio, while a
// change to the mfv library moves the op alone.

// refNode is one small linked object of the reference computation.
type refNode struct {
	next *refNode
	key  string
	val  [4]uint64
}

// refItems is how many objects one reference computation links.
const refItems = 20000

// refShare is the share of op time the runner spends on the reference
// computation.
const refShare = 0.1

// refSampler owns the reference computation's memory and its timings.
type refSampler struct {
	nodes []refNode
	keys  []string
	order []int // the order nodes are linked in, shuffled once
	m     map[string]*refNode
	buf   []string
	sink  int

	walls, cpus []float64 // ms per sample
	spent, owed time.Duration
}

// newRefSampler allocates everything the reference computation touches, so
// that the computation itself allocates nothing: its cost then does not
// depend on the garbage collector's state, which the op before it leaves
// behind.
func newRefSampler() *refSampler {
	r := &refSampler{
		nodes: make([]refNode, refItems),
		keys:  make([]string, refItems),
		order: rand.New(rand.NewSource(1)).Perm(refItems),
		m:     make(map[string]*refNode, refItems),
		buf:   make([]string, refItems),
	}
	for i := range r.keys {
		r.keys[i] = strconv.Itoa(i * 7919 % 1000003)
	}
	return r
}

// work is the reference computation. It uses the standard library only, so
// no change to mfv changes its cost, and it does the kinds of work the
// emulator does, except allocation: link small objects, insert and look up
// string keys in a map, chase pointers and sort.
func (r *refSampler) work() {
	clear(r.m)
	var head *refNode
	for _, i := range r.order {
		n := &r.nodes[i]
		n.next, n.key = head, r.keys[i]
		n.val[i%4]++
		r.m[n.key] = n
		head = n
	}
	s := 0
	for n := head; n != nil; n = n.next {
		s += int(r.m[n.key].val[0]) + len(n.key)
	}
	copy(r.buf, r.keys)
	slices.Sort(r.buf)
	r.sink += s + len(r.buf[0])
}

// sample times one reference computation.
func (r *refSampler) sample() {
	cpu0, t0 := processCPU(), time.Now()
	r.work()
	wall, cpu := time.Since(t0), processCPU()-cpu0
	r.walls, r.cpus = append(r.walls, ms(wall)), append(r.cpus, ms(cpu))
	r.spent += wall
}

// after samples the reference computation until it has taken refShare of
// the op time seen so far, op included, and at least once.
func (r *refSampler) after(op time.Duration) {
	r.owed += time.Duration(refShare * float64(op))
	for len(r.walls) == 0 || r.spent < r.owed {
		r.sample()
	}
}
