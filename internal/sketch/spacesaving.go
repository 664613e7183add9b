package sketch

import (
	"sort"
	"sync"
)

// SpaceSaving is the Metwally et al. Space-Saving heavy-hitter summary over
// keys of any ordered-comparable kind (ordering is required only to break
// count ties deterministically). With capacity k it guarantees that every
// key whose true frequency exceeds N/k is present in the summary after N
// offers, and that each reported count overestimates the true count by at
// most the count of the minimum entry at eviction time.
//
// The implementation keeps each entry in a stable slot and orders the slot
// indices in a binary min-heap by (count asc, key asc), with a slot -> heap
// back-index, so Offer is O(log k) even when the summary is full — a linear
// min-scan would cost O(k) per eviction, which at k=2048 and millions of
// rows dominates ingest — and a sift moves integers only: the key -> slot
// map is written when a key enters or leaves the summary, never when its
// entry changes rank. The (count, key) total order makes eviction
// deterministic: the same offer sequence always evicts the same keys,
// independent of map iteration order and of how the heap happens to be
// arranged.
//
// SpaceSaving is guarded by an internal mutex and safe for concurrent use.
type SpaceSaving[K ordered] struct {
	cap   int
	mu    sync.Mutex
	slots []ssEntry[K] // an entry never moves once placed
	heap  []int32      // min-heap of slot indices
	at    []int32      // slot -> index in heap
	slot  map[K]int32  // key -> slot
}

type ssEntry[K ordered] struct {
	key   K
	count uint64
	err   uint64 // overestimate bound inherited from the evicted minimum
}

// ordered is the constraint for Space-Saving keys: comparable with a total
// order usable for deterministic tie-breaking.
type ordered interface {
	~string | ~int | ~int64 | ~uint64 | ~uint32
}

// HeavyHitter is one entry reported by Items: Count overestimates the true
// frequency by at most Err.
type HeavyHitter[K ordered] struct {
	Key   K
	Count uint64
	Err   uint64
}

// NewSpaceSaving returns a tracker with the given capacity (clamped to at
// least 1).
func NewSpaceSaving[K ordered](capacity int) *SpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving[K]{
		cap:  capacity,
		slot: make(map[K]int32, capacity),
	}
}

// Cap returns the configured capacity.
func (s *SpaceSaving[K]) Cap() int { return s.cap }

// Len returns the number of tracked keys.
func (s *SpaceSaving[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Offer records n occurrences of key.
func (s *SpaceSaving[K]) Offer(key K, n uint64) {
	s.mu.Lock()
	s.offer(key, n)
	s.mu.Unlock()
}

// OfferEach records one occurrence of each key, in slice order, under one
// acquisition of the lock — what a batch of rows costs a shared summary.
func (s *SpaceSaving[K]) OfferEach(keys []K) {
	s.mu.Lock()
	for _, key := range keys {
		s.offer(key, 1)
	}
	s.mu.Unlock()
}

func (s *SpaceSaving[K]) offer(key K, n uint64) {
	if n == 0 {
		return
	}
	if sl, ok := s.slot[key]; ok {
		s.slots[sl].count += n
		s.siftDown(int(s.at[sl]))
		return
	}
	if len(s.slots) < s.cap {
		sl := int32(len(s.slots))
		s.slots = append(s.slots, ssEntry[K]{key: key, count: n})
		s.heap = append(s.heap, sl)
		s.at = append(s.at, sl)
		s.slot[key] = sl
		s.siftUp(len(s.heap) - 1)
		return
	}
	// Full: the newcomer takes over the minimum entry's slot, inheriting
	// its count as the overestimate bound.
	sl := s.heap[0]
	min := &s.slots[sl]
	delete(s.slot, min.key)
	s.slot[key] = sl
	min.err = min.count
	min.key = key
	min.count += n
	s.siftDown(0)
}

// Items returns the tracked entries sorted by (count desc, key asc) — the
// deterministic candidate order the mining layer enumerates.
func (s *SpaceSaving[K]) Items() []HeavyHitter[K] {
	s.mu.Lock()
	out := make([]HeavyHitter[K], len(s.slots))
	for i, e := range s.slots {
		out[i] = HeavyHitter[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Bytes returns an estimate of the heap footprint (entries, their two heap
// indices and map slots); string keys additionally count their byte length.
func (s *SpaceSaving[K]) Bytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.cap * (32 + 8 + 16) // entry struct + heap/at indices + map bucket share
	for i := range s.slots {
		if k, ok := any(s.slots[i].key).(string); ok {
			n += len(k)
		}
	}
	return n
}

// less orders slots by (count asc, key asc): a strict total order, so the
// eviction victim is unique.
func (s *SpaceSaving[K]) less(a, b int32) bool {
	ea, eb := &s.slots[a], &s.slots[b]
	if ea.count != eb.count {
		return ea.count < eb.count
	}
	return ea.key < eb.key
}

// place puts slot sl at heap index i.
func (s *SpaceSaving[K]) place(i int, sl int32) {
	s.heap[i] = sl
	s.at[sl] = int32(i)
}

// siftUp and siftDown carry the entry at heap index i to its rank, shifting
// the entries it passes by one level instead of swapping pairwise.
func (s *SpaceSaving[K]) siftUp(i int) {
	sl := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(sl, s.heap[p]) {
			break
		}
		s.place(i, s.heap[p])
		i = p
	}
	s.place(i, sl)
}

func (s *SpaceSaving[K]) siftDown(i int) {
	n := len(s.heap)
	sl := s.heap[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s.less(s.heap[r], s.heap[c]) {
			c = r
		}
		if !s.less(s.heap[c], sl) {
			break
		}
		s.place(i, s.heap[c])
		i = c
	}
	s.place(i, sl)
}
