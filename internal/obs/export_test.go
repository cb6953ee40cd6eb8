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

// Quantile answers an upper bound on the q-quantile of this series.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.s.buckets))
	for i := range counts {
		counts[i] = h.s.buckets[i].Load()
	}
	return quantileOf(h.bounds, counts, h.s.count.Load(), q)
}
