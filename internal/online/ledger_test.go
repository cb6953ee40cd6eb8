package online

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/fault"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/validate"
)

// TestLedgerMatchesAccount folds each run's event stream through
// validate.Account, which re-derives every lease's paid time from its BTU
// rollovers or, under finer billing, from its span, and requires the
// harness's own totals to agree with that ledger: paid seconds, rental
// cost (the sum of the lease-stop costs) and leases opened. The grid
// crosses every market preset with the fault settings that crash and
// preempt leases, every scaler, a saturating and an idle arrival rate, and
// two seeds.
func TestLedgerMatchesAccount(t *testing.T) {
	mix := mixEntries(t)
	faults := []string{"none", "flaky", "preempt-storm"}
	seeds := []uint64{3, 8}
	if testing.Short() {
		faults, seeds = []string{"none", "preempt-storm"}, seeds[:1]
	}
	var col obs.Collector
	var sc validate.Scratch
	for _, mk := range market.PresetNames() {
		for _, fname := range faults {
			for _, scaler := range ScalerNames() {
				for _, gap := range []float64{20, 600} {
					for _, seed := range seeds {
						name := fmt.Sprintf("%s/%s/%s/%g/%d", mk, fname, scaler, gap, seed)
						m, err := market.Preset(mk)
						if err != nil {
							t.Fatal(err)
						}
						fc, err := fault.Preset(fname)
						if err != nil {
							t.Fatal(err)
						}
						fc.Seed = seed
						s, err := ParseScaler(scaler)
						if err != nil {
							t.Fatal(err)
						}
						col.Events = col.Events[:0]
						res, err := Run(Config{
							MeanInterarrival: gap,
							Instances:        200,
							Mix:              mix,
							Type:             cloud.Small,
							Region:           cloud.USEastVirginia,
							MaxVMs:           16,
							Scaler:           s,
							Deadline:         3000,
							Market:           m,
							Faults:           &fc,
							Recorder:         &col,
							Seed:             seed,
						})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						acc, err := sc.Account(col.Events)
						if err != nil {
							t.Fatalf("%s: stream does not fold: %v", name, err)
						}
						if res.PaidSeconds != acc.BTUSeconds {
							t.Errorf("%s: PaidSeconds %v, ledger %v", name, res.PaidSeconds, acc.BTUSeconds)
						}
						if !near(res.TotalCost, acc.RentalCost) {
							t.Errorf("%s: TotalCost %v, ledger %v", name, res.TotalCost, acc.RentalCost)
						}
						if res.VMsRented != acc.NumLeases() {
							t.Errorf("%s: VMsRented %d, ledger %d leases", name, res.VMsRented, acc.NumLeases())
						}
					}
				}
			}
		}
	}
}

// near reports whether two sums agree up to the rounding their different
// summation orders allow: the harness adds lease costs as leases stop, the
// ledger in VM index order.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
