//go:build !race

package service

// raceEnabled reports whether the race detector is compiled in; under it,
// sync.Pool drops some of what is put back, so allocation counts read
// higher.
const raceEnabled = false
