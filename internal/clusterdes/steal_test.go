package clusterdes

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hipster/internal/faults"
	"hipster/internal/loadgen"
	"hipster/internal/platform"
	"hipster/internal/resilience"
	"hipster/internal/workload"
)

// routeWalk is the reference routing draw: a linear walk over the
// positive weights (raw, with down and draining nodes zeroed) that
// picks the first node whose running total exceeds u, falling back to
// the last positive weight. pick must select the same node.
func routeWalk(l *loop, raw []float64, u float64) int {
	acc, last := 0.0, -1
	for i, v := range l.nodes[:l.active] {
		s := raw[l.lo+i]
		if s <= 0 || v.down || v.draining {
			continue
		}
		last = i
		acc += s
		if u < acc {
			return i
		}
	}
	return last
}

// stealScan is the reference victim choice of a mid-interval steal: a
// strict ">" scan of the loop's active nodes for the deepest queue of
// at least minDepth on the thief's partition side, skipping the thief
// and down or draining nodes. It returns a global id, or -1.
func stealScan(l *loop, thief *desNode) int {
	best, depth := -1, l.minDepth-1
	for _, v := range l.nodes[:l.active] {
		if v == thief || v.down || v.draining || !l.sameSide(v.id, thief.id) {
			continue
		}
		if v.queue.Len() > depth {
			depth, best = v.queue.Len(), v.id
		}
	}
	return best
}

// fleetScan is the reference boundary steal: the same scan over the
// whole fleet's active roster, across every domain.
func fleetScan(s *sharded, thief *desNode) int {
	best, depth := -1, s.domains[0].minDepth-1
	for _, l := range s.domains {
		for _, v := range l.nodes[:l.active] {
			if v == thief || v.down || v.draining || !l.sameSide(v.id, thief.id) {
				continue
			}
			if v.queue.Len() > depth {
				depth, best = v.queue.Len(), v.id
			}
		}
	}
	return best
}

// testNodes builds n bare nodes with global ids lo, lo+1, ...
func testNodes(n, lo int) []*desNode {
	nodes := make([]*desNode, n)
	for i := range nodes {
		nodes[i] = &desNode{id: lo + i}
	}
	return nodes
}

// scramble gives every node a random queue depth in [0, maxDepth] and
// random down/draining flags. Small depth ranges force many ties.
func scramble(rng *rand.Rand, nodes []*desNode, maxDepth int) {
	for _, v := range nodes {
		v.queue.Reset()
		for d := rng.Intn(maxDepth + 1); d > 0; d-- {
			v.queue.Push(0)
		}
		v.down = rng.Intn(8) == 0
		v.draining = !v.down && rng.Intn(8) == 0
	}
}

// victimID returns the global id a victim key names, -1 for noVictim.
func victimID(k int64) int {
	if k == noVictim {
		return -1
	}
	return keyID(k)
}

// TestPickMatchesWalk checks the prefix-sum routing draw against the
// linear walk on random weight vectors with zeros, trailing zeros, a
// single positive weight, down and draining nodes, and draws forced up
// to shareSum and onto exact prefix values.
func TestPickMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(40)
		lo := 0
		if trial%2 == 1 {
			lo = rng.Intn(10)
		}
		raw := make([]float64, lo+n)
		for i := lo; i < lo+n; i++ {
			switch rng.Intn(4) {
			case 0: // zero weight
			case 1:
				raw[i] = rng.Float64() * 1e-9
			default:
				raw[i] = rng.Float64() * 100
			}
		}
		switch trial % 5 {
		case 1: // trailing zeros
			for i := lo + n - 1 - rng.Intn(n); i < lo+n; i++ {
				raw[i] = 0
			}
		case 2: // a single positive weight
			for i := lo; i < lo+n; i++ {
				raw[i] = 0
			}
			raw[lo+rng.Intn(n)] = rng.Float64() + 0.5
		}
		l := &loop{lo: lo, nodes: testNodes(n, lo), active: 1 + rng.Intn(n), shares: make([]float64, n)}
		for _, v := range l.nodes {
			v.down = rng.Intn(10) == 0
			v.draining = !v.down && rng.Intn(10) == 0
		}
		l.setShares(raw)
		if l.shareSum <= 0 {
			continue // routeDraw takes the fallback path; no walk runs
		}
		us := []float64{0, l.shareSum, math.Nextafter(l.shareSum, 0), (1 - 0x1p-53) * l.shareSum}
		for i := 0; i < l.active; i++ {
			us = append(us, l.shares[i], math.Nextafter(l.shares[i], 0))
		}
		for k := 0; k < 20; k++ {
			us = append(us, rng.Float64()*l.shareSum)
		}
		for _, u := range us {
			if got, want := l.pick(u), routeWalk(l, raw, u); got != want {
				t.Fatalf("trial %d (n=%d lo=%d active=%d): u=%v picks node %d, walk picks %d",
					trial, n, lo, l.active, u, got, want)
			}
		}
	}
}

// TestVictimMatchesScan checks the segment-tree steal against the
// linear scan for every thief position, over random depths, down and
// draining flags, partition cuts before, inside and after the loop's
// id range, lo != 0, a MinDepth no queue reaches, and leaves re-keyed
// one at a time through touch.
func TestVictimMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1500; trial++ {
		n := 1 + rng.Intn(37)
		lo := rng.Intn(3) * rng.Intn(20)
		l := &loop{lo: lo, nodes: testNodes(n, lo), active: 1 + rng.Intn(n), minDepth: 1 + rng.Intn(3)}
		switch rng.Intn(4) {
		case 1:
			l.partCut = 1 + rng.Intn(lo+1) // at or before the range
		case 2:
			l.partCut = lo + rng.Intn(n+1) // inside
		case 3:
			l.partCut = lo + n + rng.Intn(5) // after
		}
		if l.partCut == 0 && trial%4 != 0 {
			l.partCut = lo + n/2
		}
		if trial%50 == 0 {
			l.minDepth = math.MaxInt // never worth stealing
		}
		scramble(rng, l.nodes, 1+rng.Intn(5))
		l.stealTree = newStealTree(l.nodes)
		check := func(stage string) {
			t.Helper()
			checkLeaves(t, l)
			for _, thief := range l.nodes[:l.active] {
				lo, hi := l.side(thief.id)
				if got, want := victimID(l.victim(lo, hi, thief.id)), stealScan(l, thief); got != want {
					t.Fatalf("trial %d %s (n=%d lo=%d active=%d cut=%d minDepth=%d): thief %d steals from %d, scan picks %d",
						trial, stage, n, l.lo, l.active, l.partCut, l.minDepth, thief.id, got, want)
				}
			}
		}
		check("built")
		for step := 0; step < 10; step++ {
			v := l.nodes[rng.Intn(n)]
			switch rng.Intn(3) {
			case 0:
				v.queue.Push(0)
			case 1:
				if v.queue.Len() > 0 {
					v.queue.Pop()
				}
			default:
				v.down, v.draining = rng.Intn(3) == 0, rng.Intn(3) == 0
			}
			l.touch(v)
			check(fmt.Sprintf("step %d", step))
		}
	}
}

// TestFleetVictimMatchesScan checks the boundary steal's fleet-wide
// query — every domain's tree, combined on global id — against one
// scan of the whole active roster, for every thief.
func TestFleetVictimMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 800; trial++ {
		n := 1 + rng.Intn(40)
		all := testNodes(n, 0)
		scramble(rng, all, 1+rng.Intn(4))
		active := 1 + rng.Intn(n)
		cut := 0
		if trial%3 != 0 {
			cut = 1 + rng.Intn(n)
		}
		minDepth := 1 + rng.Intn(3)
		starts := PartitionDomains(n, 1+rng.Intn(min(n, 5)))
		s := &sharded{}
		for k := 0; k+1 < len(starts); k++ {
			lo, hi := starts[k], starts[k+1]
			l := &loop{lo: lo, nodes: all[lo:hi], minDepth: minDepth, partCut: cut,
				active: min(max(active-lo, 0), hi-lo)}
			l.stealTree = newStealTree(l.nodes)
			s.domains = append(s.domains, l)
		}
		for _, thief := range all[:active] {
			if got, want := victimID(s.victim(thief)), fleetScan(s, thief); got != want {
				t.Fatalf("trial %d (n=%d domains=%d active=%d cut=%d minDepth=%d): thief %d steals from %d, scan picks %d",
					trial, n, len(s.domains), active, cut, minDepth, thief.id, got, want)
			}
		}
	}
}

// checkLeaves asserts that every leaf of l's steal tree holds its
// node's queue depth (-1 while down or draining) and global id, and
// that every inner entry is the maximum of its children.
func checkLeaves(t *testing.T, l *loop) {
	t.Helper()
	tr := l.stealTree
	n := len(l.nodes)
	if len(tr) != 2*n {
		t.Fatalf("steal tree has %d entries for %d nodes", len(tr), n)
	}
	for i, v := range l.nodes {
		want := v.queue.Len()
		if v.down || v.draining {
			want = -1
		}
		k := tr[n+i]
		if depth, id := int(k>>32)-1, keyID(k); depth != want || id != v.id {
			t.Fatalf("leaf %d of the loop at %d is (depth %d, node %d), want (%d, %d)",
				i, l.lo, depth, id, want, v.id)
		}
	}
	for i := n - 1; i >= 1; i-- {
		if tr[i] != max(tr[2*i], tr[2*i+1]) {
			t.Fatalf("inner entry %d of the loop at %d is not the maximum of its children", i, l.lo)
		}
	}
}

// checkStealTree asserts the steal-tree invariant on every event loop
// of the fleet that runs events.
func checkStealTree(t *testing.T, f *Fleet) {
	t.Helper()
	loops := []*loop{&f.loop}
	if f.sh != nil {
		loops = f.sh.domains
	}
	for _, l := range loops {
		if l.stealTree == nil {
			t.Fatalf("stealing fleet has no steal tree on the loop at %d", l.lo)
		}
		checkLeaves(t, l)
	}
}

// TestStealTreeTracksQueues runs stealing fleets through crashes, spot
// revocations and partitions, with and without autoscale, and with and
// without deadline timers — whose references force the boundary steal
// to put a cross-domain victim back — at 0, 2 and 3 domains, and
// checks the steal tree at every boundary.
func TestStealTreeTracksQueues(t *testing.T) {
	faultSets := map[string]*faults.Options{
		"crash":     {CrashRate: 0.04, DownIntervals: 3},
		"revoke":    {SpotFraction: 0.5, SpotNotice: 2},
		"partition": {PartitionRate: 0.08},
		"all":       {CrashRate: 0.02, SlowRate: 0.03, PartitionRate: 0.04, SpotFraction: 0.3},
	}
	for _, fname := range []string{"crash", "revoke", "partition", "all"} {
		for _, scaled := range []bool{false, true} {
			for _, domains := range []int{0, 2, 3} {
				for _, timed := range []bool{false, true} {
					name := fmt.Sprintf("%s/autoscale=%v/domains=%d/deadlines=%v", fname, scaled, domains, timed)
					t.Run(name, func(t *testing.T) {
						nodes, err := Uniform(9, platform.JunoR1(), workload.WebSearch())
						if err != nil {
							t.Fatal(err)
						}
						opts := Options{
							Nodes:      nodes,
							Pattern:    loadgen.Spike{Base: 0.3, Peak: 1.1, EverySecs: 12, SpikeSecs: 4},
							Mitigation: WorkStealing{MinDepth: 1},
							Domains:    domains,
							Seed:       11,
							Faults:     faultSets[fname],
						}
						if timed {
							opts.Resilience = &resilience.Options{MaxRetries: 1, Timeout: 2}
						}
						if scaled {
							opts.Autoscale = &AutoscaleOptions{MinNodes: 3, InitialNodes: 5, WarmupIntervals: 1,
								CooldownIntervals: 2, DownAfterIntervals: 2}
						}
						f, err := New(opts)
						if err != nil {
							t.Fatal(err)
						}
						const horizon = 60
						if err := f.initFaults(horizon); err != nil {
							t.Fatal(err)
						}
						checkStealTree(t, f)
						for h := 1; h <= horizon; h++ {
							res, err := f.Run(float64(h))
							if err != nil {
								t.Fatal(err)
							}
							checkStealTree(t, f)
							if h == horizon && res.Stats.Steals == 0 {
								t.Error("the run stole nothing; the tree was never queried for a victim")
							}
						}
					})
				}
			}
		}
	}
}

// testShares builds a loop of n active nodes with random positive
// routing weights.
func testShares(n int) *loop {
	rng := rand.New(rand.NewSource(4))
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = 0.5 + rng.Float64()
	}
	l := &loop{nodes: testNodes(n, 0), active: n, shares: make([]float64, n), routeRNG: rand.New(rand.NewSource(5))}
	l.setShares(raw)
	return l
}

var sinkNode *desNode

// BenchmarkRouteDraw prices one routing draw: the prefix-sum binary
// search, and the linear walk it replaced for reference.
func BenchmarkRouteDraw(b *testing.B) {
	for _, n := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("search/nodes=%d", n), func(b *testing.B) {
			l := testShares(n)
			for i := 0; i < b.N; i++ {
				sinkNode = l.routeDraw()
			}
		})
		b.Run(fmt.Sprintf("walk/nodes=%d", n), func(b *testing.B) {
			l := testShares(n)
			raw := make([]float64, n)
			for i := range raw {
				raw[i] = l.shares[i]
				if i > 0 {
					raw[i] -= l.shares[i-1]
				}
			}
			for i := 0; i < b.N; i++ {
				sinkNode = l.nodes[routeWalk(l, raw, l.routeRNG.Float64()*l.shareSum)]
			}
		})
	}
}

var sinkVictim int

// BenchmarkSteal prices one victim choice with a deep-enough queue on
// the thief's side of a partition: the segment-tree query, and the
// roster scan it replaced for reference. Thieves rotate over the roster.
func BenchmarkSteal(b *testing.B) {
	build := func(n int) *loop {
		rng := rand.New(rand.NewSource(6))
		l := &loop{nodes: testNodes(n, 0), active: n, minDepth: 2, partCut: n / 2}
		for _, v := range l.nodes {
			for d := rng.Intn(4); d > 0; d-- {
				v.queue.Push(0)
			}
		}
		l.stealTree = newStealTree(l.nodes)
		return l
	}
	for _, n := range []int{16, 1024, 4096} {
		b.Run(fmt.Sprintf("tree/nodes=%d", n), func(b *testing.B) {
			l := build(n)
			for i := 0; i < b.N; i++ {
				thief := l.nodes[i%n]
				lo, hi := l.side(thief.id)
				sinkVictim = victimID(l.victim(lo, hi, thief.id))
			}
		})
		b.Run(fmt.Sprintf("scan/nodes=%d", n), func(b *testing.B) {
			l := build(n)
			for i := 0; i < b.N; i++ {
				sinkVictim = stealScan(l, l.nodes[i%n])
			}
		})
	}
}
