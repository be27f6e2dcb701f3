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
