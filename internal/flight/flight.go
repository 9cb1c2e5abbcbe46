// Package flight is the memoising singleflight behind the experiment
// runner's result memo.
package flight

import (
	"fmt"
	"sync"
)

// Group is a memoising singleflight map: concurrent callers of Do with
// the same key block on a single execution and share its result forever
// after. The memo is never evicted — the runner keys a small, finite
// space (groups x schemes x thresholds x variants, and the solo and
// profile runs of each benchmark), and keeping every value is exactly
// its job.
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
// cannot produce a different outcome. A panic in fn is memoised too, as
// an error naming the key and the panic value: waiters and later
// callers get that error, and the first caller re-panics, so a CLI
// still fails loudly while a server keeps answering.
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

	defer close(c.done)
	defer func() {
		if p := recover(); p != nil {
			c.err = fmt.Errorf("flight: %v: panic: %v", key, p)
			panic(p)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err
}
