package tile

import (
	"sync/atomic"
	"testing"
)

func TestSplitTable(t *testing.T) {
	cases := []struct {
		name        string
		rows, parts int
		want        []Band
	}{
		{"even split", 8, 4, []Band{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{"non-divisible", 10, 3, []Band{{0, 3}, {3, 6}, {6, 10}}},
		{"non-divisible 7/2", 7, 2, []Band{{0, 3}, {3, 7}}},
		{"more workers than rows", 3, 8, []Band{{0, 1}, {1, 2}, {2, 3}}},
		{"one-row grid", 1, 8, []Band{{0, 1}}},
		{"single part", 5, 1, []Band{{0, 5}}},
		{"zero parts clamps to one", 5, 0, []Band{{0, 5}}},
		{"negative parts clamps to one", 5, -3, []Band{{0, 5}}},
		{"zero rows", 0, 4, nil},
		{"negative rows", -1, 4, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := Split(c.rows, c.parts)
			if len(got) != len(c.want) {
				t.Fatalf("Split(%d, %d) = %v, want %v", c.rows, c.parts, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("Split(%d, %d)[%d] = %v, want %v", c.rows, c.parts, i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestSplitInvariants fuzzes the proportional cut points: bands must
// tile [0, rows) exactly, never be empty, and never exceed min(parts,
// rows) in count.
func TestSplitInvariants(t *testing.T) {
	for rows := 1; rows <= 40; rows++ {
		for parts := 1; parts <= 20; parts++ {
			bands := Split(rows, parts)
			wantN := parts
			if rows < parts {
				wantN = rows
			}
			if len(bands) != wantN {
				t.Fatalf("Split(%d, %d): %d bands, want %d", rows, parts, len(bands), wantN)
			}
			next := 0
			for _, b := range bands {
				if b.J0 != next {
					t.Fatalf("Split(%d, %d): gap/overlap at %v", rows, parts, b)
				}
				if b.Rows() < 1 {
					t.Fatalf("Split(%d, %d): empty band %v", rows, parts, b)
				}
				next = b.J1
			}
			if next != rows {
				t.Fatalf("Split(%d, %d): bands end at %d", rows, parts, next)
			}
		}
	}
}

func TestPoolRunCoversAllTasks(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", p.Workers())
	}
	for _, tasks := range []int{0, 1, 3, 4, 17, 100} {
		hits := make([]int32, tasks)
		p.Run(tasks, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("tasks=%d: task %d ran %d times", tasks, i, h)
			}
		}
	}
}

// TestPoolReuse hammers the same pool with many passes; under -race this
// checks the happens-before edges of the shared kernel field and the
// reusable wait group.
func TestPoolReuse(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	sum := make([]int64, 8)
	for round := 0; round < 500; round++ {
		p.Run(len(sum), func(i int) { sum[i]++ })
	}
	for i, v := range sum {
		if v != 500 {
			t.Fatalf("slot %d = %d, want 500", i, v)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d", p.Workers())
	}
	order := []int{}
	p.Run(4, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order %v not sequential", order)
		}
	}
	p.Close() // must not panic
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Run(4, func(int) {})
	p.Close()
	p.Close()
}

func TestMergeHelpers(t *testing.T) {
	if got := SumFloat64s(nil); got != 0 {
		t.Errorf("SumFloat64s(nil) = %g", got)
	}
	// Fixed merge order: identical partials must give the bitwise-same
	// sum on every call.
	parts := []float64{1e-16, 1, -1, 3e-7}
	first := SumFloat64s(parts)
	for i := 0; i < 10; i++ {
		if SumFloat64s(parts) != first {
			t.Fatal("SumFloat64s is not reproducible")
		}
	}
}
