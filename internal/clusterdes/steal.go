package clusterdes

import "math"

// stealTree is a max segment tree over one loop's nodes (leaf i at
// t[n+i], root at t[1]), built only when work stealing is on. A leaf
// holds its node's key (see stealKey): the queue depth, or -1 while the
// node is down or draining, above the inverted global id. The maximum
// key is therefore the deepest queue with the lowest id on ties —
// exactly the node a strict ">" scan of the roster picks. Every queue
// push or pop and every down/draining flip re-keys the node's leaf
// (loop.touch), so choosing a victim is an O(log N) range query.
type stealTree []int64

// noVictim sorts below every key.
const noVictim int64 = -1

// stealKey packs node n's steal-tree key.
func stealKey(n *desNode) int64 {
	d := int64(n.queue.Len())
	if n.down || n.draining {
		d = -1
	}
	return (d+1)<<32 | int64(math.MaxUint32-uint32(n.id))
}

// keyID unpacks the global node id of a steal-tree key.
func keyID(k int64) int { return int(math.MaxUint32 - uint32(k)) }

// newStealTree builds the tree over nodes bottom-up, in O(N).
func newStealTree(nodes []*desNode) stealTree {
	n := len(nodes)
	t := make(stealTree, 2*n)
	for i, v := range nodes {
		t[n+i] = stealKey(v)
	}
	for i := n - 1; i >= 1; i-- {
		t[i] = max(t[2*i], t[2*i+1])
	}
	return t
}

// set re-keys leaf i, then its ancestors up to the first one whose
// maximum does not change.
func (t stealTree) set(i int, k int64) {
	i += len(t) / 2
	t[i] = k
	for i > 1 {
		i >>= 1
		m := max(t[2*i], t[2*i+1])
		if t[i] == m {
			return
		}
		t[i] = m
	}
}

// query returns the maximum key over leaves [a, b), noVictim when the
// range is empty.
func (t stealTree) query(a, b int) int64 {
	best := noVictim
	n := len(t) / 2
	for a, b = a+n, b+n; a < b; a, b = a>>1, b>>1 {
		if a&1 == 1 {
			best = max(best, t[a])
			a++
		}
		if b&1 == 1 {
			b--
			best = max(best, t[b])
		}
	}
	return best
}

// touch re-keys node n's leaf after its queue depth or its
// down/draining state changed; a no-op without a steal tree. Only the
// nil check inlines at the call sites, so a run without work stealing
// pays that alone per queue push or pop.
func (l *loop) touch(n *desNode) {
	if l.stealTree != nil {
		l.rekey(n)
	}
}

// rekey is the out-of-line half of touch.
func (l *loop) rekey(n *desNode) { l.stealTree.set(n.id-l.lo, stealKey(n)) }

// side returns the global id range [lo, hi) of node id's partition
// side, the whole roster without a partition.
func (l *loop) side(id int) (lo, hi int) {
	if id >= l.partCut { // also the no-partition case, partCut == 0
		return l.partCut, math.MaxInt
	}
	return 0, l.partCut
}

// victim returns the key of the deepest queue at least minDepth deep
// among the loop's active nodes with global ids in [lo, hi), other than
// node skip, or noVictim. The range splits around skip into at most two
// queries; when the root is already too shallow — the common case at
// moderate load — it answers without one.
func (l *loop) victim(lo, hi, skip int) int64 {
	t := l.stealTree
	// A minDepth beyond the key's depth range clamps to its top; no
	// queue gets that deep.
	floor := int64(min(l.minDepth, math.MaxInt32-1)+1) << 32
	if t[1] < floor {
		return noVictim
	}
	a, b, s := max(lo, l.lo)-l.lo, min(hi, l.lo+l.active)-l.lo, skip-l.lo
	if best := max(t.query(a, min(b, s)), t.query(max(a, s+1), b)); best >= floor {
		return best
	}
	return noVictim
}

// steal pulls the oldest request from the deepest queue (at least
// minDepth deep) on the thief's partition side of the loop's active
// set, -1 when nothing is worth stealing. Warming victims are fair game
// — their queue is exactly the transient stealing exists to drain.
// Mid-interval steals stay inside the loop's own domain; cross-domain
// steals happen only at interval boundaries, through the coordinator.
func (l *loop) steal(thief *desNode) int32 {
	lo, hi := l.side(thief.id)
	k := l.victim(lo, hi, thief.id)
	if k == noVictim {
		return -1
	}
	return l.popLocal(l.node(int32(keyID(k))))
}
