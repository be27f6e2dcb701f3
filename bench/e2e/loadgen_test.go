package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// fakeClock advances only when the generator sleeps (overshooting by a
// fixed lag) or a request is served (by its service time).
type fakeClock struct {
	mu        sync.Mutex
	now       time.Time
	overshoot time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.Before(t) {
		c.now = t.Add(c.overshoot)
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopTimesFromDueTime: a 25 ms stall delays the requests queued
// behind it, and their latency counts from when each was due, not from
// when it was finally sent; generator lag is the sleep overshoot of the
// requests sent on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(0, 0), overshoot: 1 * ms}
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 100 * ms}
	service := []time.Duration{25 * ms, 5 * ms, 5 * ms, 5 * ms, 5 * ms}
	res := runOpenLoop(context.Background(), clk, clk.Now(), due, 1, func(i int) { clk.advance(service[i]) })

	want := []time.Duration{25 * ms, 20 * ms, 15 * ms, 10 * ms, 6 * ms}
	for i, w := range want {
		if !res.sent[i] || res.latency[i] != w {
			t.Errorf("request %d: sent=%v latency %v, want %v", i, res.sent[i], res.latency[i], w)
		}
	}
	// Requests 1-3 were due while the sender was still busy: late, not lag.
	if res.late != 3 {
		t.Errorf("late = %d, want 3", res.late)
	}
	// Request 0 was due at the start (no sleep, no lag); request 4 slept
	// and woke 1 ms late.
	if len(res.lag) != 2 || res.lag[0] != 0 || res.lag[1] != 1*ms {
		t.Errorf("lag = %v, want [0s 1ms]", res.lag)
	}
}

func TestScheduleLaysPhasesEndToEnd(t *testing.T) {
	due, phaseOf := schedule([]phase{
		{label: "slow", rate: 10, dur: 200 * time.Millisecond},
		{label: "fast", rate: 100, dur: 30 * time.Millisecond},
	})
	want := []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 210 * time.Millisecond, 220 * time.Millisecond}
	if len(due) != len(want) {
		t.Fatalf("due = %v, want %v", due, want)
	}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want[i])
		}
	}
	if phaseOf[1] != 0 || phaseOf[2] != 1 {
		t.Errorf("phaseOf = %v", phaseOf)
	}
}

func TestOpenLoopStopsWithContext(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	ctx, cancel := context.WithCancel(context.Background())
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond}
	res := runOpenLoop(ctx, clk, clk.Now(), due, 1, func(i int) {
		if i == 0 {
			cancel()
		}
	})
	if !res.sent[0] || res.sent[1] || res.sent[2] {
		t.Fatalf("sent = %v, want only the first", res.sent)
	}
}
