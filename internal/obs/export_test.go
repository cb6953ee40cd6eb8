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
