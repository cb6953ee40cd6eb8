package market

// At returns the multiplier in effect at time t, the one-lookup reference
// SumAt is checked against. A nil trace is flat 1.0; times before the
// first segment (negative t) use the first segment.
func (tr *Trace) At(t float64) float64 {
	if tr == nil || len(tr.Times) == 0 {
		return 1
	}
	// Binary search for the last segment starting at or before t.
	lo, hi := 0, len(tr.Times)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tr.Times[mid] <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return tr.Mult[lo]
}
