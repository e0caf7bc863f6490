package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its Op number; Parent is the id of the span that caused this one (0 for
// an op's root span).
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent"`
	Op      int              `json:"op"`
	Name    string           `json:"name"`
	StartNs int64            `json:"start_ns"`
	EndNs   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps the benchmark's own spans in memory until the workload
// ends. A nil tracer records nothing, so the untraced pass runs the same
// code with tracing off. Times are nanoseconds since the tracer was made.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newOp starts a new op and returns its root span id.
func (t *tracer) newOp(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.begin(0, op, name)
}

// begin opens a span under parent; op 0 inherits the parent's op.
func (t *tracer) begin(parent, op int, name string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if op == 0 && parent > 0 {
		op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: start})
	return len(t.spans)
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(parent int, name string, startNs, endNs int64, counts map[string]int64) {
	if t == nil {
		return
	}
	id := t.begin(parent, 0, name)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.StartNs, s.EndNs, s.Counts = startNs, endNs, counts
	t.mu.Unlock()
}

// startOf returns the start time of a span.
func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].StartNs
}

// end closes a span, attaching counts measured at the same boundary.
func (t *tracer) end(id int, counts map[string]int64) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].EndNs = end
	t.spans[id-1].Counts = counts
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice; parts of a child outside the parent are ignored).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNs - s.StartNs - covered
	}
	return self
}

// write dumps the spans, with their self times, as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	out := make([]outSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = outSpan{s, self[s.ID]}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
