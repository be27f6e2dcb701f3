package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// clock abstracts time for the open-loop generator so its due-time and
// lag accounting can be tested without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// phase is one fixed-rate stretch of an open-loop schedule.
type phase struct {
	label string
	rate  float64 // requests per second
	dur   time.Duration
}

// schedule lays the phases end to end and returns each request's due
// offset from the start of the window and the index of its phase.
func schedule(phases []phase) (due []time.Duration, phaseOf []int) {
	var offset time.Duration
	for p, ph := range phases {
		n := int(math.Round(ph.rate * ph.dur.Seconds()))
		for k := 0; k < n; k++ {
			due = append(due, offset+time.Duration(float64(k)*float64(time.Second)/ph.rate))
			phaseOf = append(phaseOf, p)
		}
		offset += ph.dur
	}
	return due, phaseOf
}

// openLoopResult is the timing of one open-loop window.
type openLoopResult struct {
	// sent marks the requests that were issued (all, unless the context
	// ended the window early).
	sent []bool
	// latency is each request's time from when it was due to when its
	// response was complete, so a stall also charges the requests that
	// queued behind it.
	latency []time.Duration
	// lag is how late the generator woke for each request it sent on
	// time; late counts requests whose sender was still busy with an
	// earlier response at their due time (server-caused, not lag).
	lag  []time.Duration
	late int
}

// runOpenLoop issues request i at start+due[i] from `senders` goroutines,
// one connection each; a sender busy past a request's due time sends it
// as soon as it is free. send performs request i and returns when its
// response is complete. runOpenLoop returns when every request has been
// sent and answered or ctx has ended.
func runOpenLoop(ctx context.Context, clk clock, start time.Time, due []time.Duration, senders int, send func(i int)) openLoopResult {
	n := len(due)
	res := openLoopResult{sent: make([]bool, n), latency: make([]time.Duration, n)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				at := start.Add(due[i])
				onTime := !clk.Now().After(at)
				if onTime {
					clk.SleepUntil(at)
				}
				woke := clk.Now()
				send(i)
				done := clk.Now()
				mu.Lock()
				res.sent[i] = true
				res.latency[i] = done.Sub(at)
				if onTime {
					res.lag = append(res.lag, woke.Sub(at))
				} else {
					res.late++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
