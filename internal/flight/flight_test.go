package flight

import (
	"strings"
	"sync"
	"testing"
)

// TestPanicReleasesWaiters: a panicking fn must not leave its key's
// entry open. Every concurrent waiter is released with an error naming
// the key and the panic value, the first caller re-panics, and a later
// call returns the memoised error without running fn again.
func TestPanicReleasesWaiters(t *testing.T) {
	var g Group[string, int]
	const waiters = 8
	started := make(chan struct{})
	release := make(chan struct{})
	calls := 0
	fn := func() (int, error) {
		calls++
		close(started)
		<-release
		panic("boom")
	}

	leader := make(chan any, 1)
	go func() {
		defer func() { leader <- recover() }()
		g.Do("key-42", fn)
	}()
	<-started

	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.Do("key-42", fn)
			errs <- err
		}()
	}
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("first caller recovered %v, want the re-panicked \"boom\"", p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil || !strings.Contains(err.Error(), "key-42") || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("waiter got %v, want an error naming key-42 and panic boom", err)
		}
	}

	v, err := g.Do("key-42", fn)
	if err == nil || v != 0 {
		t.Fatalf("later call got (%d, %v), want the memoised panic error", v, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
}

// TestPanicDoesNotTouchOtherKeys: the memoised panic is the key's
// alone; another key still runs its fn.
func TestPanicDoesNotTouchOtherKeys(t *testing.T) {
	var g Group[int, string]
	func() {
		defer func() { recover() }()
		g.Do(1, func() (string, error) { panic("boom") })
	}()
	v, err := g.Do(2, func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("key 2 got (%q, %v) after key 1 panicked", v, err)
	}
}
