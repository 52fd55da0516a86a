package serve

import (
	"sync"
	"sync/atomic"
)

// flightCall is one in-progress execution of a key.
type flightCall[T any] struct {
	done chan struct{}
	val  T
}

// wait blocks until the leader finishes and returns its value.
func (c *flightCall[T]) wait() T {
	<-c.done
	return c.val
}

// flight deduplicates concurrent work by fingerprint: the first caller
// for a key becomes the leader and does the work; every concurrent
// caller for the same key waits for the leader's value instead of
// repeating it. Calls are forgotten once finished — nothing is cached
// here, errors included, so a later request retries — while successful
// results persist in the ResultCache.
type flight[T any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[T]
	// shared counts callers that waited on a leader: the work that
	// would have been repeated without the flight.
	shared atomic.Uint64
}

// begin registers interest in key. The first caller leads (and must
// call finish exactly once); everyone else waits on the returned call.
func (g *flight[T]) begin(key string) (*flightCall[T], bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.calls == nil {
		g.calls = make(map[string]*flightCall[T])
	}
	if c, ok := g.calls[key]; ok {
		g.shared.Add(1)
		return c, false
	}
	c := &flightCall[T]{done: make(chan struct{})}
	g.calls[key] = c
	return c, true
}

// finish publishes the leader's value, forgets the key and releases the
// waiters.
func (g *flight[T]) finish(key string, c *flightCall[T], v T) {
	c.val = v
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
}

// do runs fn under key's flight and returns the leader's value and
// whether this caller shared it. Waiters are released even if fn
// panics.
func (g *flight[T]) do(key string, fn func() T) (v T, shared bool) {
	c, leader := g.begin(key)
	if !leader {
		return c.wait(), true
	}
	defer func() { g.finish(key, c, v) }()
	v = fn()
	return v, false
}
