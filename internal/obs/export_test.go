package obs

// Len returns the number of retained records.
func (f *Flight) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.buf)
	}
	return f.next
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Quantile answers an upper bound on the q-quantile of this series.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.s.buckets))
	for i := range counts {
		counts[i] = h.s.buckets[i].Load()
	}
	return quantileOf(h.bounds, counts, h.s.count.Load(), q)
}
