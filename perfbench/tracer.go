package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Op groups the spans of
// one benchmark operation (one request, one upload, one export); Parent is
// the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the module a span belongs to: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans and counters in memory until the run ends. A nil
// tracer is the untraced run: every method is a no-op, so the workloads call
// it unconditionally.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []span
	counters map[string]float64
	nextID   int64
	nextOp   int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]float64{}}
}

// op allocates the identifier shared by the spans of one operation.
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, op, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return t.nextID
}

// timed runs fn inside a span and returns the span ID.
func (t *tracer) timed(name string, op, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.record(name, op, parent, start, time.Now())
}

// reserve allocates a span ID before the span ends, so children recorded
// while it runs can name it as their parent; finish completes it.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) finish(id int64, name string, op, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// count adds v to a named counter recorded at a span boundary.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counters[name] += v
}

// counter reads a counter (0 when never recorded).
func (t *tracer) counter(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// durations returns the wall time in milliseconds of every span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its child spans cover, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		covered := coveredNs(s, children[s.ID])
		self[s.layer()] += float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write dumps every span and counter as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans    []span             `json:"spans"`
		Counters map[string]float64 `json:"counters"`
	}{t.spans, t.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
