package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Derived spans were not timed around a call:
// their length comes from a counter the program keeps (a view's cumulative
// maintenance time), and they are laid end to end inside their parent.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps spans and counters in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op, so workloads call
// it unconditionally and pay only a nil check.
type tracer struct {
	t0       time.Time
	mu       sync.Mutex
	spans    []span
	counters map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

func (t *tracer) on() bool { return t != nil }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// begin opens a span and returns its id (0 when untraced).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := t.ns(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured.
func (t *tracer) record(name string, parent int32, start, end time.Time, derived bool) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: t.ns(start), End: t.ns(end), Derived: derived})
	return id
}

// count adds delta to a named counter.
func (t *tracer) count(name string, delta float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counters[name]
}

// named returns a copy of every span with the given name.
func (t *tracer) named(name string) []span { return t.mark0().named(name) }

// durations returns the lengths of every span with the given name.
func (t *tracer) durations(name string) samples { return t.mark0().durations(name) }

// mark is a point in a traced run. Read through it, counters count only
// what was added after it and span queries see only spans that started
// after it, so figures of a measured window leave out the set-up before it.
type mark struct {
	t    *tracer
	at   int64
	base map[string]float64
}

// mark returns the current point of the run.
func (t *tracer) mark() mark {
	t.mu.Lock()
	defer t.mu.Unlock()
	base := make(map[string]float64, len(t.counters))
	for k, v := range t.counters {
		base[k] = v
	}
	return mark{t: t, at: t.ns(time.Now()), base: base}
}

// mark0 is the start of the run.
func (t *tracer) mark0() mark { return mark{t: t, at: 0} }

func (m mark) counter(name string) float64 { return m.t.counter(name) - m.base[name] }

func (m mark) named(name string) []span {
	m.t.mu.Lock()
	defer m.t.mu.Unlock()
	var out []span
	for _, s := range m.t.spans {
		if s.Name == name && s.Start >= m.at {
			out = append(out, s)
		}
	}
	return out
}

func (m mark) durations(name string) samples {
	var out samples
	for _, s := range m.named(name) {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}

// selfTimes returns, for every span with the given name, its length minus
// the part of it that its child spans cover (children of one parent do
// not overlap in this benchmark: each parent's children run in sequence).
func (t *tracer) selfTimes(name string) samples {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int32]int64{}
	for _, s := range t.spans {
		if s.Parent == 0 {
			continue
		}
		p := t.spans[s.Parent-1]
		if p.Name != name {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			covered[p.ID] += hi - lo
		}
	}
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start-covered[s.ID]))
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
