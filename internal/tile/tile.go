// Package tile is the band-decomposition scheduler behind the parallel
// LLG stepper: it splits a 2-D mesh into horizontal row bands and runs
// per-band kernels on a persistent worker pool.
//
// Design constraints (see DESIGN.md §10):
//
//   - Bands partition rows disjointly, so concurrent kernels never write
//     the same cell. The exchange stencil reads one halo row on each side
//     of a band, which is safe because magnetization inputs are immutable
//     during a field pass; passes that write a field the stencil reads
//     are separated by the Run barrier.
//   - Band boundaries depend only on (rows, bands requested), never on
//     scheduling, and per-cell arithmetic is band-independent, so
//     magnetization trajectories are bit-for-bit identical for any
//     worker count.
//   - Reductions (energy) are computed as per-band or per-row partials
//     and merged after the barrier in fixed index order (SumFloat64s),
//     keeping them deterministic too.
//
// A Pool's goroutines are persistent: the hot stepping loop enqueues
// plain band indices on a channel and parks on a reusable sync.WaitGroup,
// so a steady-state pass performs no allocations.
package tile

import (
	"fmt"
	"sync"
)

// Band is a half-open range of mesh rows [J0, J1) processed by one
// kernel invocation.
type Band struct {
	J0, J1 int
}

// Rows returns the number of rows in the band.
func (b Band) Rows() int { return b.J1 - b.J0 }

// String formats the band as "[J0,J1)".
func (b Band) String() string { return fmt.Sprintf("[%d,%d)", b.J0, b.J1) }

// Split partitions rows [0, rows) into at most parts contiguous bands of
// near-equal height. Empty bands are never returned: when rows < parts
// the result has exactly rows single-row bands, and a 1-row grid always
// yields one band. Split(rows, parts) is deterministic and uses the same
// proportional cut points for every call, so band boundaries — and hence
// per-band reduction partials — do not depend on scheduling.
func Split(rows, parts int) []Band {
	if rows <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > rows {
		parts = rows
	}
	bands := make([]Band, 0, parts)
	for w := 0; w < parts; w++ {
		j0 := rows * w / parts
		j1 := rows * (w + 1) / parts
		if j0 == j1 {
			continue // defensive; unreachable once parts <= rows
		}
		bands = append(bands, Band{J0: j0, J1: j1})
	}
	return bands
}

// Pool runs banded kernels on a fixed set of persistent worker
// goroutines. The zero value is not usable; call NewPool. A nil *Pool is
// valid and runs every kernel inline on the calling goroutine, which
// keeps serial and parallel call sites identical.
//
// Pool is safe for use by one controller goroutine at a time: Run may
// not be called concurrently with itself or Close. (The LLG solver is
// the controller; distinct solvers own distinct pools.)
type Pool struct {
	workers int
	work    chan int
	fn      func(int) // kernel of the in-flight Run pass
	pending sync.WaitGroup
	closed  sync.Once
}

// NewPool starts a pool of n persistent workers. n < 1 is clamped to 1.
// Callers must Close the pool when done with it or its goroutines leak.
//
// The workers deliberately carry no pprof goroutine labels: labeling
// them (pprof.Do or SetGoroutineLabels) makes the process allocate
// intermittently while the pool is hot, which trips the process-wide
// malloc counting in TestStepAllocates' zero-alloc pin. Band kernels
// are attributed in CPU profiles by function name instead; the
// engine's eval/task goroutines, which are not under an allocation
// pin, do carry labels (DESIGN.md §11).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n, work: make(chan int, n)}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

func (p *Pool) worker() {
	for i := range p.work {
		p.fn(i)
		p.pending.Done()
	}
}

// Run executes f(i) for every task index i in [0, tasks) across the
// pool and returns when all invocations have finished — a full barrier.
// On a nil pool the tasks run inline in index order. Run allocates
// nothing: callers that need zero-allocation passes should reuse a
// prebuilt f rather than capturing per-call state in a fresh closure.
func (p *Pool) Run(tasks int, f func(i int)) {
	if tasks <= 0 {
		return
	}
	if p == nil || p.workers == 1 || tasks == 1 {
		for i := 0; i < tasks; i++ {
			f(i)
		}
		return
	}
	// The channel send happens-before the worker's receive, so workers
	// observe p.fn written here; pending.Wait happens-after every Done,
	// so the next Run's write to p.fn cannot race with this pass.
	p.fn = f
	p.pending.Add(tasks)
	for i := 0; i < tasks; i++ {
		p.work <- i
	}
	p.pending.Wait()
	p.fn = nil
}

// Close stops the worker goroutines. It is idempotent and must not be
// called concurrently with Run. A nil pool ignores Close.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.closed.Do(func() { close(p.work) })
}

// SumFloat64s merges per-band (or per-row) partial sums in fixed index
// order. Floating-point addition is not associative: summing fixed
// partials in index order is what makes banded reductions bit-identical
// for every worker count.
func SumFloat64s(partials []float64) float64 {
	sum := 0.0
	for _, v := range partials {
		sum += v
	}
	return sum
}
