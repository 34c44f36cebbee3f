package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval: a call into a layer made from the benchmark's
// own code, a storage call made through countingStorage, or one query.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"` // 0 for a root span
	Trace  int64            `json:"trace"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"` // since the tracer's epoch
	End    time.Duration    `json:"end_ns"`
	Self   time.Duration    `json:"self_ns"` // filled by selfTimes
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the benchmark writes them out.  The
// current span is the parent of every storage span recorded meanwhile: layer
// calls are made one at a time from the benchmark, so a storage call belongs
// to whichever layer span is open, even when a worker goroutine of that
// layer makes it.
type tracer struct {
	epoch   time.Time
	nextID  atomic.Int64
	current atomic.Int64 // id of the open layer span
	trace   atomic.Int64 // trace id of the open layer span

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// storageSpan returns the time since start and, on a non-nil tracer, records
// it as a span under the current layer span.
func (t *tracer) storageSpan(name string, start time.Time) time.Duration {
	end := time.Now()
	if t == nil {
		return end.Sub(start)
	}
	t.add(span{
		ID:     t.nextID.Add(1),
		Parent: t.current.Load(),
		Trace:  t.trace.Load(),
		Name:   name,
		Start:  start.Sub(t.epoch),
		End:    end.Sub(t.epoch),
	})
	return end.Sub(start)
}

// open starts a layer span under the current one (a new trace when there is
// none) and makes it current; the returned function closes it, restores the
// previous current span and returns the recorded span.
func (t *tracer) open(name string) func(attrs map[string]int64) span {
	parent, prevTrace := t.current.Load(), t.trace.Load()
	id := t.nextID.Add(1)
	trace := prevTrace
	if parent == 0 {
		trace = id
	}
	s := span{ID: id, Parent: parent, Trace: trace, Name: name, Start: time.Since(t.epoch)}
	t.current.Store(id)
	t.trace.Store(trace)
	return func(attrs map[string]int64) span {
		s.End = time.Since(t.epoch)
		s.Attrs = attrs
		t.current.Store(parent)
		t.trace.Store(prevTrace)
		t.add(s)
		return s
	}
}

// selfTimes fills every span's Self: its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return t.spans
}

// covered returns the length of the union of the intervals of spans, clipped
// to [lo, hi].
func covered(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// traceSelfSum returns the summed self time of every span of one trace.
func traceSelfSum(spans []span, trace int64) time.Duration {
	var sum time.Duration
	for _, s := range spans {
		if s.Trace == trace {
			sum += s.Self
		}
	}
	return sum
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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
