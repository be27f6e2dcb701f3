package runhistory

import (
	"math/rand"
	"testing"
)

// TestHashSetMatchesMap drives the set through several merges, with
// removals from both the map and the sorted slice, against a plain map.
func TestHashSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s hashSet
	ref := map[uint64]bool{}
	var added []uint64
	for i := 0; i < 5*hashSetBuffer; i++ {
		h := rng.Uint64() >> 50 // a small range, so some draws repeat
		if ref[h] {
			if !s.has(h) {
				t.Fatalf("lost %d", h)
			}
			continue
		}
		s.add(h)
		ref[h] = true
		added = append(added, h)
		if i%7 == 0 {
			// Remove an older hash, by now often merged into the slice.
			old := added[rng.Intn(len(added))]
			if ref[old] {
				s.remove(old)
				ref[old] = false
			}
		}
	}
	for h := uint64(0); h < 1<<14; h++ {
		if s.has(h) != ref[h] {
			t.Fatalf("has(%d) = %v, want %v", h, s.has(h), ref[h])
		}
	}
	for i := 1; i < len(s.sorted); i++ {
		if s.sorted[i-1] >= s.sorted[i] {
			t.Fatalf("sorted slice out of order at %d", i)
		}
	}
}

// TestHashSetMergeCostLinear bounds the elements the merges move — the
// slice each merge rewrites plus the copy when it grows — over 2^20
// adds to a small constant times the adds. A merge every fixed number
// of adds moves O(N^2) elements in total, ~500 N at this N.
func TestHashSetMergeCostLinear(t *testing.T) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	var s hashSet
	moved := 0
	for i := 0; i < n; i++ {
		before, capBefore := len(s.sorted), cap(s.sorted)
		s.add(rng.Uint64())
		if len(s.sorted) != before {
			moved += len(s.sorted)
			if cap(s.sorted) != capBefore {
				moved += before
			}
		}
	}
	if per := float64(moved) / n; per > 32 {
		t.Fatalf("merges moved %.1f elements per add, want <= 32", per)
	} else {
		t.Logf("merges moved %.1f elements per add", per)
	}
}
