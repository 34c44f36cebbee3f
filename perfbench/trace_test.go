package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []span{
		{ID: 1, Trace: 1, Name: "root", Start: 0, End: ms(100)},
		{ID: 2, Parent: 1, Trace: 1, Name: "layer", Start: ms(10), End: ms(60)},
		// Two overlapping storage calls of concurrent workers.
		{ID: 3, Parent: 2, Trace: 1, Name: "storage.read", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 2, Trace: 1, Name: "storage.read", Start: ms(25), End: ms(35)},
		{ID: 5, Parent: 1, Trace: 1, Name: "layer", Start: ms(70), End: ms(90)},
	}
	spans := tr.selfTimes()
	want := map[int64]time.Duration{1: ms(30), 2: ms(35), 3: ms(10), 4: ms(10), 5: ms(20)}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d: self %v, want %v", s.ID, s.Self, want[s.ID])
		}
	}
	// The overlap of spans 3 and 4 is counted twice, so the sum exceeds the
	// root by exactly that overlap.
	if got := traceSelfSum(spans, 1); got != ms(105) {
		t.Errorf("self sum %v, want 105ms", got)
	}
}
