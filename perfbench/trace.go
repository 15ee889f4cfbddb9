package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one traced interval: a layer call (or a batch of hot calls, with
// their count) inside one op. Spans of one op share its op id; parent is
// the enclosing span (-1 at an op's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds every span of a traced run in memory; write dumps them at
// the end. It is safe for concurrent use by the engine's workers.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   []string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is a position in the span tree: the op, the enclosing span and the
// worker that records children.
type scope struct {
	tr     *tracer
	op     int
	parent int
	worker int
}

// newOp starts a traced op and returns its root scope.
func (t *tracer) newOp(name string) scope {
	t.mu.Lock()
	op := len(t.ops)
	t.ops = append(t.ops, name)
	t.mu.Unlock()
	root := scope{tr: t, op: op, parent: -1}
	return root.begin("op:" + name)
}

// begin opens a child span and returns the scope nested inside it.
func (s scope) begin(name string) scope {
	t := s.tr
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: s.parent, Op: s.op, Name: name, Worker: s.worker, Start: now, End: now})
	t.mu.Unlock()
	return scope{tr: t, op: s.op, parent: id, worker: s.worker}
}

// end closes the span s was opened by, recording its call count.
func (s scope) end(calls int64) {
	t := s.tr
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[s.parent].End = now
	t.spans[s.parent].Calls = calls
	t.mu.Unlock()
}

// on returns the scope re-attributed to worker w.
func (s scope) on(w int) scope {
	s.worker = w
	return s
}

// leaf records a completed child span that started at start and ends now.
func (s scope) leaf(name string, start time.Time, calls int64) {
	t := s.tr
	end := time.Since(t.t0).Nanoseconds()
	st := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: s.parent, Op: s.op, Name: name, Worker: s.worker, Start: st, End: end, Calls: calls})
	t.mu.Unlock()
}

// total sums the durations and call counts of the named spans of op.
func (t *tracer) total(op int, name string) (ns, calls int64, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Op == op && sp.Name == name {
			ns += sp.dur()
			calls += sp.Calls
			n++
		}
	}
	return ns, calls, n
}

// longest returns the longest duration among the named spans of op.
func (t *tracer) longest(op int, name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m int64
	for _, sp := range t.spans {
		if sp.Op == op && sp.Name == name && sp.dur() > m {
			m = sp.dur()
		}
	}
	return m
}

// rootDur returns the duration of op's root span.
func (t *tracer) rootDur(op int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Op == op && sp.Parent == -1 {
			return sp.dur()
		}
	}
	return 0
}

// write dumps every span as one JSON object per line, preceded by a line
// naming the ops and stamping the run.
func (t *tracer) write(path string, st stamp) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := struct {
		Ops   []string `json:"ops"`
		Stamp stamp    `json:"stamp"`
	}{t.ops, st}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
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
