package market

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// Trace is a piecewise-constant spot price multiplier over simulated
// time: the spot price in effect at time t is the on-demand base times
// the discount times At(t). Times are ascending and anchored at zero, so
// every non-negative instant falls into exactly one segment.
type Trace struct {
	Times []float64 // ascending segment starts; Times[0] == 0
	Mult  []float64 // positive multiplier of each segment
}

// NewTrace validates and returns a trace over the given segments.
func NewTrace(times, mult []float64) (*Trace, error) {
	if len(times) == 0 || len(times) != len(mult) {
		return nil, fmt.Errorf("market: trace with %d times, %d multipliers", len(times), len(mult))
	}
	if times[0] != 0 {
		return nil, fmt.Errorf("market: trace must start at t=0, got %v", times[0])
	}
	for i := range times {
		if i > 0 && times[i] <= times[i-1] {
			return nil, fmt.Errorf("market: trace times not ascending at %d (%v after %v)",
				i, times[i], times[i-1])
		}
		if mult[i] <= 0 {
			return nil, fmt.Errorf("market: non-positive trace multiplier %v at t=%v", mult[i], times[i])
		}
	}
	return &Trace{Times: times, Mult: mult}, nil
}

// Len returns the number of segments.
func (tr *Trace) Len() int {
	if tr == nil {
		return 0
	}
	return len(tr.Times)
}

// SumAt sums the multiplier in effect at the start of each of n billing
// intervals of the given unit, the first beginning at start — the factor
// a spot lease's per-unit base price is scaled by. The walk is O(n +
// segments): a two-pointer sweep instead of n binary searches.
func (tr *Trace) SumAt(start float64, n int, unit float64) float64 {
	if tr == nil || len(tr.Times) == 0 {
		return float64(n)
	}
	var sum float64
	idx := 0
	for idx+1 < len(tr.Times) && tr.Times[idx+1] <= start {
		idx++
	}
	for k := 0; k < n; k++ {
		t := start + float64(k)*unit
		for idx+1 < len(tr.Times) && tr.Times[idx+1] <= t {
			idx++
		}
		sum += tr.Mult[idx]
	}
	return sum
}

// Synthetic returns a deterministic seeded spot trace: a mean-reverting
// random walk of n steps of the given length (seconds), with per-step
// volatility vol, clamped into [0.25, 4] of the base price. Equal
// arguments yield equal traces on every platform — the walk draws from
// the repository's own splitmix64 stream, not math/rand.
func Synthetic(seed uint64, n int, step, vol float64) *Trace {
	if n < 1 {
		n = 1
	}
	if step <= 0 {
		step = 900
	}
	if vol <= 0 {
		vol = 0.2
	}
	r := stats.NewRNG(stats.Hash(seed, 0x5b07_7ace))
	times := make([]float64, n)
	mult := make([]float64, n)
	m := 1.0
	for i := 0; i < n; i++ {
		times[i] = float64(i) * step
		mult[i] = m
		m += vol*(2*r.Float64()-1) + 0.1*(1-m)
		if m < 0.25 {
			m = 0.25
		}
		if m > 4 {
			m = 4
		}
	}
	return &Trace{Times: times, Mult: mult}
}

// ParseTrace reads the small loadable trace format: one "time multiplier"
// pair per line, '#' comments and blank lines ignored, times ascending
// from 0. It is the inverse of Format.
func ParseTrace(r io.Reader) (*Trace, error) {
	var times, mult []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("market: trace line %d: want \"time multiplier\", got %q", line, sc.Text())
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("market: trace line %d: bad time %q", line, fields[0])
		}
		m, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("market: trace line %d: bad multiplier %q", line, fields[1])
		}
		times = append(times, t)
		mult = append(mult, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("market: reading trace: %w", err)
	}
	return NewTrace(times, mult)
}
