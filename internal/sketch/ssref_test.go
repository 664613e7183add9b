package sketch

import "sort"

// refSpaceSaving is the Space-Saving summary as it shipped before entries
// moved into stable slots: the entries themselves sit in the binary
// min-heap and every swap rewrites the key -> heap-index map. It shares no
// code with SpaceSaving, so equal Items() over the same offer stream is
// evidence that the slot heap evicts the same victims with the same
// inherited errors.
type refSpaceSaving[K ordered] struct {
	cap  int
	heap []ssEntry[K]
	pos  map[K]int // key -> index in heap
}

func newRefSpaceSaving[K ordered](capacity int) *refSpaceSaving[K] {
	if capacity < 1 {
		capacity = 1
	}
	return &refSpaceSaving[K]{cap: capacity, pos: make(map[K]int, capacity)}
}

func (s *refSpaceSaving[K]) Offer(key K, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := s.pos[key]; ok {
		s.heap[i].count += n
		s.siftDown(i)
		return
	}
	if len(s.heap) < s.cap {
		s.heap = append(s.heap, ssEntry[K]{key: key, count: n})
		s.pos[key] = len(s.heap) - 1
		s.siftUp(len(s.heap) - 1)
		return
	}
	min := &s.heap[0]
	delete(s.pos, min.key)
	s.pos[key] = 0
	min.err = min.count
	min.key = key
	min.count += n
	s.siftDown(0)
}

func (s *refSpaceSaving[K]) Items() []HeavyHitter[K] {
	out := make([]HeavyHitter[K], len(s.heap))
	for i, e := range s.heap {
		out[i] = HeavyHitter[K]{Key: e.key, Count: e.count, Err: e.err}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func (s *refSpaceSaving[K]) less(i, j int) bool {
	if s.heap[i].count != s.heap[j].count {
		return s.heap[i].count < s.heap[j].count
	}
	return s.heap[i].key < s.heap[j].key
}

func (s *refSpaceSaving[K]) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i].key] = i
	s.pos[s.heap[j].key] = j
}

func (s *refSpaceSaving[K]) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.less(i, p) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *refSpaceSaving[K]) siftDown(i int) {
	n := len(s.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && s.less(l, m) {
			m = l
		}
		if r < n && s.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}
