package engine

import (
	"context"
	"sync"
)

// group coalesces concurrent calls with the same key onto one execution
// — a minimal, context-aware singleflight (no external dependency).
type group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// do runs fn once per key among concurrent callers. Followers wait for
// the leader's result; a follower whose own context expires returns its
// ctx error immediately and leaves the leader running. The leader's
// context governs the evaluation itself, so a cancelled leader can
// propagate its cancellation error to followers — callers that need a
// fresh attempt simply call again (the key is cleared before done is
// signalled).
func (g *group[V]) do(ctx context.Context, key string, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		passTurn(ctx) // a follower takes no eval slot
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return val, ctx.Err(), true
		}
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
