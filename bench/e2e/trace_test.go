package main

import (
	"testing"
	"time"
)

// TestSelfTimeCountsOverlapOnce: a parent's self time is its duration
// minus the union of its children, clipped to the parent, so two cases
// running in parallel are not subtracted twice.
func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "engine.table", Start: at(0), Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "micromag.transient", Start: at(10), Dur: 40 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "micromag.transient", Start: at(30), Dur: 40 * time.Millisecond},
		{ID: 4, Parent: 1, Name: "micromag.lockin", Start: at(90), Dur: 30 * time.Millisecond},
	}
	self := selfTimes(spans)
	// Children cover 10-70 and 90-100 of the parent: 70 ms.
	if self[1] != 30*time.Millisecond {
		t.Fatalf("parent self time %v, want 30ms", self[1])
	}
	if self[2] != 40*time.Millisecond || self[4] != 30*time.Millisecond {
		t.Fatalf("leaf self times %v and %v, want their durations", self[2], self[4])
	}
}
