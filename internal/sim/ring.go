package sim

// Completer receives task completions by tag. A Resource, Pool worker
// or SharedProcessor calls Complete once per task submitted with a
// non-nil Completer, at the task's end, passing back the tag the task
// was submitted with and its span. Completing by tag — typically a plan
// op's index — instead of through a closure captured per task keeps
// submission allocation-free.
type Completer interface {
	Complete(tag int32, start, end Time)
}

// Ring is a growable FIFO queue. Resources and streams keep their
// pending completions in one: their completion events fire in
// submission order, so each event pops the head instead of carrying
// its own closure. The zero value is an empty ring.
type Ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Push appends v at the tail.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. Popping an empty ring panics.
func (q *Ring[T]) Pop() T {
	if q.n == 0 {
		panic("sim: pop from an empty ring")
	}
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // release references for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// grow doubles the backing array, unwrapping the queue to its start.
func (q *Ring[T]) grow() {
	buf := make([]T, max(2, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
