package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of the traced run. Spans of one request
// (a transaction or an analytic query) share Req; Parent is 0 for roots.
// Times are nanoseconds since the tracer's epoch.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no checks.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span (or request) identifier, so a parent's ID can be
// handed to children before the parent ends.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
}

// stmt records one statement span with its two server-reported
// children: sched.wait (queue wait) then server.exec (execution). The
// server reports only their durations, so they are placed after the
// request's half of the remaining (wire and client) time.
func (t *tracer) stmt(parent, req uint64, kind string, start, end time.Time, wait, exec time.Duration) {
	if t == nil {
		return
	}
	id := t.id()
	t.record(id, parent, req, "stmt."+kind, start, end)
	gap := max(0, end.Sub(start)-wait-exec) / 2
	ws := start.Add(gap)
	t.record(t.id(), id, req, "sched.wait", ws, ws.Add(wait))
	t.record(t.id(), id, req, "server.exec", ws.Add(wait), ws.Add(wait+exec))
}

// computeSelf fills each span's Self: its duration minus the part of
// that interval its children cover (children clipped to the parent,
// overlaps counted once).
func computeSelf(spans []Span) {
	children := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, cur := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfByLayer sums self time by layer, the span-name prefix before the
// first dot (txn/query roots count as "client").
func selfByLayer(spans []Span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "txn", "query":
			layer = "client"
		case "stmt":
			layer = "wire"
		}
		out[layer] += s.Self
	}
	return out
}

// finish computes self times and writes the spans as JSON lines.
func (t *tracer) finish(path string) (map[string]int64, error) {
	computeSelf(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return selfByLayer(t.spans), f.Close()
}
