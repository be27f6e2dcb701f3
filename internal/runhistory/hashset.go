package runhistory

import "slices"

// hashSet is a set of 64-bit hashes at 8–10 B per entry: a sorted slice
// holds most of them and a small map takes new ones until it fills and
// is merged in. A plain map[uint64]struct{} costs 20–25 B per entry,
// which at serving rates made the catalog's dedup set the largest
// growing allocation of the server.
type hashSet struct {
	sorted []uint64
	recent map[uint64]struct{}
}

// hashSetBuffer is the fewest hashes the map takes before a merge. A
// merge rewrites the whole slice, so the map also takes a sixteenth of
// the slice's length first: the slice then grows geometrically between
// merges and each add moves a bounded number of elements on average,
// while the map's per-entry cost stays small next to the slice.
const hashSetBuffer = 1024

func (s *hashSet) has(h uint64) bool {
	if _, ok := s.recent[h]; ok {
		return true
	}
	_, ok := slices.BinarySearch(s.sorted, h)
	return ok
}

// add inserts h, which must not be in the set.
func (s *hashSet) add(h uint64) {
	if s.recent == nil {
		s.recent = make(map[uint64]struct{})
	}
	s.recent[h] = struct{}{}
	if len(s.recent) >= max(hashSetBuffer, len(s.sorted)/16) {
		s.merge()
	}
}

func (s *hashSet) remove(h uint64) {
	if _, ok := s.recent[h]; ok {
		delete(s.recent, h)
		return
	}
	if i, ok := slices.BinarySearch(s.sorted, h); ok {
		s.sorted = slices.Delete(s.sorted, i, i+1)
	}
}

// merge moves the map's hashes into the sorted slice, merging from the
// back so the slice is rewritten in place. The slice grows by a quarter
// when full, not by doubling, to keep its spare capacity small.
func (s *hashSet) merge() {
	add := make([]uint64, 0, len(s.recent))
	for h := range s.recent {
		add = append(add, h)
	}
	slices.Sort(add)
	clear(s.recent)
	n, k := len(s.sorted), len(add)
	if cap(s.sorted) < n+k {
		grown := make([]uint64, n, (n+k)*5/4)
		copy(grown, s.sorted)
		s.sorted = grown
	}
	s.sorted = s.sorted[:n+k]
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && s.sorted[i] > add[j] {
			s.sorted[w] = s.sorted[i]
			i--
		} else {
			s.sorted[w] = add[j]
			j--
		}
	}
}
