// Package flight is the memoising singleflight shared by the
// experiment runner's result memo and the checkpoint layer's warm-up
// memo.
package flight

import "sync"

// Group is a memoising singleflight map: concurrent callers of Do with
// the same key block on a single execution and share its result forever
// after. The memo is never evicted — both users key a small, finite
// space (groups x schemes x thresholds x variants; warm-up identities
// at one scale and seed), and keeping every value is exactly their job.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the memoised value for key, executing fn exactly once per
// key across all goroutines. fn runs on the first caller's goroutine;
// later callers block until it finishes. Errors are memoised like
// values: simulation runs are deterministic, so retrying an errored key
// cannot produce a different outcome.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	close(c.done)
	return c.val, c.err
}
