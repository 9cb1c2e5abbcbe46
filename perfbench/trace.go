package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer. Spans of one op share its id;
// Parent indexes the enclosing span in the tracer's list (-1 for the
// op's root span).
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory around the benchmark's calls into the
// layers, with a pprof label per span so CPU profile samples can be
// attributed to the call that caused them. A nil tracer records
// nothing: untraced ops call straight through.
type tracer struct {
	t0    time.Time
	ctx   context.Context
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ctx: context.Background()}
}

// span runs f inside a span called name.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	i := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, StartNS: t.now()})
	t.stack = append(t.stack, i)
	outer := t.ctx
	pprof.Do(outer, pprof.Labels("span", name), func(ctx context.Context) {
		t.ctx = ctx
		f()
	})
	t.ctx = outer
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].EndNS = t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// perOp sums the durations of the spans called name within each op and
// returns them in milliseconds, one value per op that had such a span.
func (t *tracer) perOp(name string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Op]; !ok {
			order = append(order, s.Op)
		}
		sums[s.Op] += float64(s.EndNS-s.StartNS) / 1e6
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = sums[op]
	}
	return out
}

// write saves the spans to path as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
