package clusterdes

import (
	"math/rand"
	"testing"

	"hipster/internal/queueing"
)

// TestEventQueueMatchesHeap drives the lane queue and a plain TimeHeap
// with the same pushes, the way the event loop does: an arrival process
// interleaves with the pops in time order, each push happens at the
// current event time, deadlines are now + a fixed timeout, hedges are
// now + a wait that sometimes shrinks (sending later hedges to the heap
// fallback), and completions and retries land at random offsets. With
// distinct keys the two must pop the same sequence.
func TestEventQueueMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := newEventQueue()
	var ref queueing.TimeHeap[event]
	now, wait, id := 0.0, 0.5, int32(0)
	const timeout = 1.3
	fallbacks := 0
	for op := 0; op < 200000; op++ {
		next := now + rng.ExpFloat64()*0.05
		if rt, ok := ref.PeekTime(); !ok || next < rt {
			now = next
			id++
			var tt float64
			ev := event{a: id}
			switch k := rng.Intn(4); k {
			case evCompletion:
				ev.kind, ev.b, ev.c = evCompletion, int32(rng.Intn(8)), int32(rng.Intn(3))
				tt = now + rng.ExpFloat64()*0.2
			case evHedge:
				if rng.Intn(50) == 0 {
					wait *= 0.3 + rng.Float64() // shrink or grow at a "boundary"
				}
				ev.kind = evHedge
				tt = now + wait
				if q.hedge.ring.Len() > 0 && tt < q.hedge.tail {
					fallbacks++
				}
			case evTimeout:
				ev.kind = evTimeout
				tt = now + timeout
			default:
				ev.kind = evRetry
				tt = now + rng.Float64()*2
			}
			q.Push(tt, ev)
			ref.Push(tt, ev)
			continue
		}
		qt, qok := q.PeekTime()
		rt, rok := ref.PeekTime()
		if qt != rt || qok != rok {
			t.Fatalf("op %d: PeekTime = %v,%v, want %v,%v", op, qt, qok, rt, rok)
		}
		gt, gev := q.Pop()
		wt, wev := ref.Pop()
		if gt != wt || gev != wev {
			t.Fatalf("op %d: Pop = %v %+v, want %v %+v", op, gt, gev, wt, wev)
		}
		now = gt
	}
	if fallbacks == 0 {
		t.Fatal("no hedge timer took the heap fallback")
	}
	for ref.Len() > 0 {
		gt, gev := q.Pop()
		wt, wev := ref.Pop()
		if gt != wt || gev != wev {
			t.Fatalf("drain: Pop = %v %+v, want %v %+v", gt, gev, wt, wev)
		}
	}
	if _, ok := q.PeekTime(); ok {
		t.Fatal("drained queue still reports a pending event")
	}
}

// TestEventQueueTieOrder pins the documented order for exact ties
// between sources — heap, then hedge lane, then deadline lane — for
// every push order, and FIFO order within a lane.
func TestEventQueueTieOrder(t *testing.T) {
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	evs := []event{
		{kind: evCompletion, a: 1, b: 2, c: 3},
		{kind: evHedge, a: 2},
		{kind: evTimeout, a: 3},
	}
	for _, p := range perms {
		q := newEventQueue()
		for _, i := range p {
			q.Push(4.0, evs[i])
		}
		for _, want := range evs {
			if tt, got := q.Pop(); tt != 4.0 || got != want {
				t.Fatalf("push order %v: Pop = %v %+v, want 4 %+v", p, tt, got, want)
			}
		}
	}
	q := newEventQueue()
	q.Push(1, event{kind: evTimeout, a: 10})
	q.Push(1, event{kind: evTimeout, a: 11})
	q.Push(2, event{kind: evHedge, a: 20})
	q.Push(1.5, event{kind: evHedge, a: 21}) // behind the lane's tail: heap
	q.Push(2, event{kind: evHedge, a: 22})
	if q.heap.Len() != 1 {
		t.Fatalf("heap holds %d events, want the one out-of-order hedge", q.heap.Len())
	}
	for _, want := range []int32{10, 11, 21, 20, 22} {
		if _, ev := q.Pop(); ev.a != want {
			t.Fatalf("Pop = request %d, want %d", ev.a, want)
		}
	}
}
