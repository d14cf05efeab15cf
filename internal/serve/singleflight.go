package serve

import (
	"net/http"
	"sync"
)

// flightGroup deduplicates concurrent identical work: under N
// simultaneous requests with the same canonical hash, exactly one
// (the leader) runs the computation; the others (followers) block on
// its completion and share the result. Together with the result cache
// this gives the single-simulation-per-unique-hash guarantee the
// concurrency suite asserts.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done   chan struct{}
	dups   int // followers that joined this call
	status int
	body   []byte
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// Do runs fn under key, or joins an in-flight run of the same key.
// It returns fn's (status, body) and whether this caller was a
// follower (shared someone else's result). fn runs exactly once per
// concurrent group; once the group drains, a later Do runs fn again
// (by then the result cache answers instead). A panic in fn becomes a
// 500 for the leader and every follower alike, and the key is released
// either way, so one failing request cannot wedge later identical ones.
func (g *flightGroup) Do(key string, fn func() (int, []byte)) (status int, body []byte, shared bool) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.status, c.body, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.status, c.body = callRecovered(fn)
	return c.status, c.body, false
}

// callRecovered runs fn, turning a panic into a 500 with the uniform
// error payload.
func callRecovered(fn func() (int, []byte)) (status int, body []byte) {
	defer func() {
		if recover() != nil {
			status, body = http.StatusInternalServerError, errorBody("internal error while computing this request")
		}
	}()
	return fn()
}
