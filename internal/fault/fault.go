// Package fault models the imperfect cloud the paper's evaluation assumes
// away: VMs that crash mid-lease (a Poisson process per VM-hour, the IaaS
// failure model of the probabilistic-scheduling literature) and tasks that
// abort transiently partway through an attempt (a per-attempt Bernoulli
// draw). The simulator in internal/sim consumes a Config through its
// fault-injection hook and recovers according to the configured policy.
//
// Every stochastic decision is a pure function of (Seed, entity identity,
// attempt number): the injector derives one splitmix64 stream per decision
// instead of consuming a shared sequential stream. Two runs with the same
// seed and the same fault configuration therefore make bit-identical
// draws regardless of event interleaving, and a parallel sweep is as
// reproducible as a serial one.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Recovery enumerates the policies deciding what happens after a fault.
type Recovery int

const (
	// Retry re-runs a failed attempt on the same VM after a capped
	// exponential backoff. A crashed VM is replaced in place (same type,
	// fresh lease) and its surviving queue re-runs there.
	Retry Recovery = iota
	// Resubmit moves a failed task to a freshly provisioned VM of the same
	// type, paying a new BTU and the replacement boot lag.
	Resubmit
	// Fail aborts the whole workflow on the first fault; the run reports
	// the completed fraction instead of a makespan for the full DAG.
	Fail
)

// Recoveries lists the policies in presentation order.
func Recoveries() []Recovery { return []Recovery{Retry, Resubmit, Fail} }

// String returns the CLI name of the policy.
func (r Recovery) String() string {
	switch r {
	case Retry:
		return "retry"
	case Resubmit:
		return "resubmit"
	case Fail:
		return "fail"
	}
	return fmt.Sprintf("Recovery(%d)", int(r))
}

// ParseRecovery resolves a policy by its CLI name, case-insensitively.
func ParseRecovery(s string) (Recovery, error) {
	for _, r := range Recoveries() {
		if strings.EqualFold(r.String(), s) {
			return r, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown recovery policy %q (valid: retry, resubmit, fail)", s)
}

// Default recovery parameters, applied by Fill for zero fields.
const (
	// DefaultMaxRetries bounds the re-execution attempts per task beyond
	// the first one.
	DefaultMaxRetries = 5
	// DefaultBackoffS is the base delay of the capped exponential backoff.
	DefaultBackoffS = 30.0
	// DefaultMaxBackoffS caps the exponential backoff.
	DefaultMaxBackoffS = 600.0
)

// Config describes one fault scenario. The zero value (no crashes, no
// task failures) is the paper's perfect cloud.
type Config struct {
	// CrashRate is the expected number of VM crashes per VM-hour of lease
	// time (the rate of an exponential time-to-failure). Zero disables
	// crashes.
	CrashRate float64
	// TaskFailProb is the probability that one execution attempt of a task
	// aborts partway through. Zero disables transient failures.
	TaskFailProb float64
	// SpotPreemptRate is the expected number of provider reclamations per
	// spot-VM-hour (the rate of an exponential time-to-preemption). It is
	// the market layer's crash cause: only leases bought on the spot
	// market (internal/market) draw from it, via their own hash-derived
	// stream and their own reliability counters, distinct from CrashRate's
	// hardware crashes. Zero disables preemptions; a non-zero rate over a
	// schedule with no spot leases changes nothing.
	SpotPreemptRate float64
	// Recovery selects the reaction to a fault.
	Recovery Recovery
	// MaxRetries bounds the extra attempts per task after a transient
	// failure; once exceeded the workflow fails. Zero selects
	// DefaultMaxRetries; use a negative value for "no retries".
	MaxRetries int
	// BackoffS and MaxBackoffS parameterize the retry policy's capped
	// exponential backoff (delay = min(BackoffS·2^(k−1), MaxBackoffS) before
	// retry k). Zero selects the defaults.
	BackoffS    float64
	MaxBackoffS float64
	// RebootS is the boot lag of replacement VMs (crash replacements and
	// resubmission targets) — recovered capacity is not instant.
	RebootS float64
	// Seed drives every stochastic draw. Same seed, same faults.
	Seed uint64
}

// Active reports whether the configuration injects any fault at all
// (spot preemptions included — they only bite schedules with spot
// leases, but an injector must be armed for them).
func (c *Config) Active() bool {
	return c != nil && (c.CrashRate > 0 || c.TaskFailProb > 0 || c.SpotPreemptRate > 0)
}

// Fill replaces zero recovery parameters with the defaults and returns the
// config for chaining.
func (c Config) Fill() Config {
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffS == 0 {
		c.BackoffS = DefaultBackoffS
	}
	if c.MaxBackoffS == 0 {
		c.MaxBackoffS = DefaultMaxBackoffS
	}
	return c
}

// Validate rejects impossible parameters.
func (c Config) Validate() error {
	switch {
	case c.CrashRate < 0:
		return fmt.Errorf("fault: negative crash rate %v", c.CrashRate)
	case c.SpotPreemptRate < 0:
		return fmt.Errorf("fault: negative spot preemption rate %v", c.SpotPreemptRate)
	case c.TaskFailProb < 0 || c.TaskFailProb > 1:
		return fmt.Errorf("fault: task failure probability %v outside [0, 1]", c.TaskFailProb)
	case c.BackoffS < 0:
		return fmt.Errorf("fault: negative backoff %v", c.BackoffS)
	case c.MaxBackoffS < 0:
		return fmt.Errorf("fault: negative backoff cap %v", c.MaxBackoffS)
	case c.RebootS < 0:
		return fmt.Errorf("fault: negative reboot lag %v", c.RebootS)
	}
	if _, err := ParseRecovery(c.Recovery.String()); err != nil {
		return fmt.Errorf("fault: invalid recovery policy %d", int(c.Recovery))
	}
	return nil
}

// String summarizes the scenario for reports and logs.
func (c Config) String() string {
	if c.SpotPreemptRate > 0 {
		return fmt.Sprintf("faults{crash: %.3g/VM-h, preempt: %.3g/VM-h, task-fail: %.3g, recovery: %s}",
			c.CrashRate, c.SpotPreemptRate, c.TaskFailProb, c.Recovery)
	}
	return fmt.Sprintf("faults{crash: %.3g/VM-h, task-fail: %.3g, recovery: %s}",
		c.CrashRate, c.TaskFailProb, c.Recovery)
}

// Injector makes the stochastic calls of one simulated run. It is
// stateless apart from the configuration: every draw is derived from the
// seed and the identity of the thing being decided, so draws are
// independent of the order the simulator asks in.
type Injector struct {
	cfg Config
}

// NewInjector validates the configuration, fills defaulted fields, and
// returns the injector.
func NewInjector(cfg Config) (*Injector, error) {
	cfg = cfg.Fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// Config returns the filled configuration the injector runs.
func (in *Injector) Config() Config { return in.cfg }

// Domain separators for the per-decision streams. Order is append-only:
// each separator pins the stream identity of its decision class, so
// adding kinds never shifts existing draws.
const (
	kindCrash uint64 = 0xC4A5 + iota
	kindTask
	kindPreempt
)

// stream derives the decision stream for one (kind, a, b) identity.
func (in *Injector) stream(kind, a, b uint64) *stats.RNG {
	return stats.NewRNG(stats.Hash(in.cfg.Seed, kind, a, b))
}

// CrashAfter returns how many seconds into its lease VM incarnation inc
// crashes, or +Inf when it survives. Lifetimes are exponential with rate
// CrashRate per hour, the waiting time of the Poisson crash process.
func (in *Injector) CrashAfter(inc uint64) float64 {
	if in.cfg.CrashRate <= 0 {
		return math.Inf(1)
	}
	u := in.stream(kindCrash, inc, 0).Float64()
	return -math.Log(1-u) * 3600 / in.cfg.CrashRate
}

// PreemptAfter returns how many seconds into its lease spot VM
// incarnation inc is reclaimed by the provider, or +Inf when it survives.
// Lifetimes are exponential with rate SpotPreemptRate per hour, drawn
// from a stream disjoint from CrashAfter's — the same incarnation can
// draw both fates, and whichever fires first wins, so crashes and
// preemptions compose without perturbing each other's draws.
func (in *Injector) PreemptAfter(inc uint64) float64 {
	if in.cfg.SpotPreemptRate <= 0 {
		return math.Inf(1)
	}
	u := in.stream(kindPreempt, inc, 0).Float64()
	return -math.Log(1-u) * 3600 / in.cfg.SpotPreemptRate
}

// Losses returns lease incarnation inc's loss draws, in seconds into the
// lease: its crash (CrashAfter) and, for a spot lease, its preemption
// (PreemptAfter); a fate the lease escapes is +Inf. The simulator arms a
// lease's loss events from these draws, and its quiet-replay screen
// reads the same ones, so the two cannot drift apart.
func (in *Injector) Losses(inc uint64, spot bool) (crash, preempt float64) {
	crash, preempt = in.CrashAfter(inc), math.Inf(1)
	if spot {
		preempt = in.PreemptAfter(inc)
	}
	return crash, preempt
}

// AttemptFails reports whether attempt (1-based) of the given task aborts,
// and if so at which fraction of its execution time the abort hits.
func (in *Injector) AttemptFails(task, attempt int) (bool, float64) {
	if in.cfg.TaskFailProb <= 0 {
		return false, 0
	}
	r := in.stream(kindTask, uint64(task), uint64(attempt))
	if r.Float64() >= in.cfg.TaskFailProb {
		return false, 0
	}
	return true, r.Float64()
}

// Backoff returns the delay before retry k (1-based): the capped
// exponential min(BackoffS·2^(k−1), MaxBackoffS).
func (in *Injector) Backoff(k int) float64 {
	if k < 1 {
		k = 1
	}
	d := in.cfg.BackoffS * math.Pow(2, float64(k-1))
	if d > in.cfg.MaxBackoffS {
		return in.cfg.MaxBackoffS
	}
	return d
}

// CellSeed derives an independent fault seed for one named experiment cell
// (workflow/scenario/strategy), so sweep cells draw from disjoint streams
// no matter how the driver orders or parallelizes them.
func CellSeed(seed uint64, parts ...string) uint64 {
	h := seed
	for _, p := range parts {
		h = stats.Hash(h, uint64(len(p)))
		for i := 0; i < len(p); i++ {
			h = stats.Hash(h, uint64(p[i]))
		}
	}
	return h
}

// Presets are named fault scenarios for CLIs and experiment configs: a
// calm region, a flaky one, a hostile stress setting, and two spot-market
// reclamation climates (mild and storm) that only bite schedules with
// spot leases. "none" is the perfect cloud.
//
// New preset names must sort after "none": fuzz corpus entries address
// presets by index into the alphabetical PresetNames, so a name sorting
// earlier would silently remap every committed case.
func Presets() map[string]Config {
	return map[string]Config{
		"none": {},
		"calm": {CrashRate: 0.01, TaskFailProb: 0.002, Recovery: Retry, RebootS: 60},
		"flaky": {CrashRate: 0.05, TaskFailProb: 0.01, Recovery: Resubmit,
			RebootS: 90},
		"hostile": {CrashRate: 0.25, TaskFailProb: 0.05, Recovery: Resubmit,
			RebootS: 120},
		"preempt-mild": {SpotPreemptRate: 0.3, Recovery: Retry, RebootS: 45},
		"preempt-storm": {SpotPreemptRate: 1.5, TaskFailProb: 0.005,
			Recovery: Resubmit, RebootS: 90},
	}
}

// PresetNames lists the preset scenarios alphabetically.
func PresetNames() []string {
	m := Presets()
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset resolves a named fault scenario.
func Preset(name string) (Config, error) {
	if c, ok := Presets()[strings.ToLower(name)]; ok {
		return c, nil
	}
	return Config{}, fmt.Errorf("fault: unknown preset %q (valid: %s)",
		name, strings.Join(PresetNames(), ", "))
}
