package clusterdes

import (
	"math"

	"hipster/internal/queueing"
)

// eventQueue is a loop's pending-event set. Completions and retries go
// to a binary heap; deadline and hedge timers each go to a FIFO lane
// whenever their time is at or after the lane's tail, and to the heap
// otherwise. Every deadline is now + Timeout, so all of them land in
// their lane; a hedge timer falls back to the heap only when the hedge
// delay shrinks at a boundary or a predictive suspect gets the shorter
// delay. A lane is sorted by construction, so its timers cost O(1) each
// instead of two O(log n) sifts.
//
// PeekTime and Pop take the earliest of the three sources. Exact ties
// between sources go to the heap first, then the hedge lane, then the
// deadline lane.
type eventQueue struct {
	heap     queueing.TimeHeap[event]
	hedge    timerLane
	deadline timerLane
}

// timerLane is a time-ordered FIFO of one timer kind. head caches the
// front timer's time (+Inf when empty) so the three-way minimum reads
// no ring.
type timerLane struct {
	ring queueing.Ring[laneTimer]
	head float64
	tail float64
}

type laneTimer struct {
	t  float64
	id int32
}

func newEventQueue() eventQueue {
	return eventQueue{hedge: timerLane{head: math.Inf(1)}, deadline: timerLane{head: math.Inf(1)}}
}

// push appends a timer when it keeps the lane sorted; false sends it to
// the heap.
func (ln *timerLane) push(t float64, id int32) bool {
	if ln.ring.Len() > 0 && t < ln.tail {
		return false
	}
	if ln.ring.Len() == 0 {
		ln.head = t
	}
	ln.ring.Push(laneTimer{t, id})
	ln.tail = t
	return true
}

func (ln *timerLane) pop() int32 {
	id := ln.ring.Pop().id
	if ln.ring.Len() > 0 {
		ln.head = ln.ring.Peek().t
	} else {
		ln.head = math.Inf(1)
	}
	return id
}

// Push schedules ev at time t.
func (q *eventQueue) Push(t float64, ev event) {
	switch ev.kind {
	case evHedge:
		if q.hedge.push(t, ev.a) {
			return
		}
	case evTimeout:
		if q.deadline.push(t, ev.a) {
			return
		}
	}
	q.heap.Push(t, ev)
}

// PeekTime returns the earliest pending time; ok is false when nothing
// is pending.
func (q *eventQueue) PeekTime() (t float64, ok bool) {
	t = q.hedge.head
	if q.deadline.head < t {
		t = q.deadline.head
	}
	if ht, hok := q.heap.PeekTime(); hok && ht <= t {
		return ht, true
	}
	return t, q.hedge.ring.Len()+q.deadline.ring.Len() > 0
}

// Pop removes and returns the earliest event, breaking exact ties in
// the order heap, hedge lane, deadline lane. Pop on an empty queue
// panics.
func (q *eventQueue) Pop() (float64, event) {
	ht, hok := q.heap.PeekTime()
	if hok && ht <= q.hedge.head && ht <= q.deadline.head {
		return q.heap.Pop()
	}
	if q.hedge.head <= q.deadline.head {
		t := q.hedge.head
		return t, event{kind: evHedge, a: q.hedge.pop()}
	}
	t := q.deadline.head
	return t, event{kind: evTimeout, a: q.deadline.pop()}
}
