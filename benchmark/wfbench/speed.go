package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// On a shared host the speed of the machine drifts by tens of percent over
// seconds to minutes, as neighbours load the cores, caches and memory the
// benchmark runs on, and that drift swamps what a change to the program
// does. So the timed phase of every workload stops at checkpoints between
// operations, about every refEvery, and times refSlice of a fixed reference
// load: the benchmark's own code, which no change to the program touches.
// The timed metrics are then reported at the reference machine's speed:
// each duration is multiplied by the reference rate measured around it over
// refNominal. The raw values are printed too.
//
// The reference load allocates small objects, builds small maps and sorts,
// on every core, much as the program does, and tracks the program's drift
// better than a compute loop does. It runs in a child process of its own
// (see serveReference): in the benchmark's process the collector would run
// more or less often during the slice depending on the live heap the
// program holds, and a change to the program would move the reference.
// A checkpoint collects garbage in the benchmark's process first, so that
// no background marking competes with the slice.
const (
	refEvery = 500 * time.Millisecond
	refSlice = 25 * time.Millisecond
	// refNominal is the reference rate, in units per second, of the 2-vCPU
	// Intel Xeon the benchmark was sized on, measured while quiet.
	refNominal = 250_000
	// speedWindow checkpoints on each side of an operation set its scale,
	// so that drift within a run is taken out too.
	speedWindow = 2
	// roleEnv set to roleReference makes the process the reference server.
	roleEnv       = "WFBENCH_ROLE"
	roleReference = "reference"
)

type refNode struct {
	next *refNode
	v    [4]int
}

// refUnit is one unit of reference work on one goroutine's list: 50 small
// allocations, kept for a while, a small map and a sort of 64 floats.
func refUnit(keep *[]*refNode) {
	for i := 0; i < 50; i++ {
		*keep = append(*keep, &refNode{})
		if len(*keep) > 20_000 {
			*keep = nil
		}
	}
	m := make(map[int]int, 8)
	for i := 0; i < 8; i++ {
		m[i] = i
	}
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64(i * 7919 % 64)
	}
	slices.Sort(xs)
}

// refRate runs the reference loop on every core for d and returns the
// units completed per second.
func refRate(d time.Duration) float64 {
	runtime.GC()
	procs := runtime.GOMAXPROCS(0)
	counts := make([]int, procs)
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var keep []*refNode
			n := 0
			for time.Now().Before(end) {
				for k := 0; k < 4; k++ {
					refUnit(&keep)
				}
				n += 4
			}
			counts[g] = n
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / time.Since(start).Seconds()
}

// refWarm slices warm a new reference process up before it answers: its
// first slices grow its heap and run slower.
const refWarm = 8

// serveReference is the reference process: for each line it reads, it
// times one reference slice and writes the rate as a line. It returns when
// its input closes.
func serveReference(in io.Reader, out io.Writer) int {
	for i := 0; i < refWarm; i++ {
		refRate(refSlice)
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		if _, err := fmt.Fprintf(out, "%g\n", refRate(refSlice)); err != nil {
			return 1
		}
	}
	return 0
}

// speed is the speed index of one timed phase, served by a reference
// process.
type speed struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *bufio.Scanner
	rates []float64 // the reference rate at each checkpoint
	last  time.Time
	err   error // the first checkpoint that failed
}

// newSpeed starts a reference process and takes a first checkpoint.
func newSpeed() (*speed, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), roleEnv+"="+roleReference)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %w", err)
	}
	s := &speed{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	s.checkpoint()
	if s.err != nil {
		return nil, errors.Join(s.err, s.close())
	}
	return s, nil
}

// close ends the reference process and waits for it.
func (s *speed) close() error {
	s.in.Close()
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	return nil
}

// checkpoint collects garbage and times a reference slice.
func (s *speed) checkpoint() {
	runtime.GC()
	if s.err == nil {
		s.err = s.ask()
	}
	s.last = time.Now()
}

func (s *speed) ask() error {
	if _, err := io.WriteString(s.in, "\n"); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	if !s.out.Scan() {
		return fmt.Errorf("reference process: no answer: %v", s.out.Err())
	}
	rate, err := strconv.ParseFloat(s.out.Text(), 64)
	if err != nil || !(rate > 0) {
		return fmt.Errorf("reference process answered %q", s.out.Text())
	}
	s.rates = append(s.rates, rate)
	return nil
}

// tick takes a checkpoint when refEvery has passed since the last one.
func (s *speed) tick() {
	if time.Since(s.last) >= refEvery {
		s.checkpoint()
	}
}

// mark tags an operation starting now with the number of checkpoints
// taken before it.
func (s *speed) mark() int { return len(s.rates) }

// scaleAt converts a duration of an operation tagged m to the reference
// machine: multiply durations by it. It is the median of the speedWindow
// reference rates before the operation and the speedWindow after it, over
// refNominal.
func (s *speed) scaleAt(m int) float64 {
	lo, hi := max(m-speedWindow, 0), min(m+speedWindow, len(s.rates))
	return median(s.rates[lo:hi]) / refNominal
}
