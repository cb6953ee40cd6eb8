package plan_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/fuzzcheck"
	"repro/internal/market"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestBillMatchesPerQuantity holds VM.Bill and Schedule.Totals to the
// per-quantity methods, bit for bit, on fuzzcheck's random workflows:
// every catalog strategy and hedge under every market preset, HCOC on
// prepaid private VMs, and each schedule again with a held tail — one
// lease held past its last slot and one held-but-empty reservation.
func TestBillMatchesPerQuantity(t *testing.T) {
	scenarios := []workload.Scenario{workload.AsIs, workload.Pareto, workload.BestCase, workload.WorstCase}
	checked := 0
	for i := 0; i < 8; i++ {
		c := fuzzcheck.Random(29, i)
		w := scenarios[i%len(scenarios)].Apply(c.Workflow(), c.Seed)
		base, err := sched.Baseline().Schedule(w, sched.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		algs := append(sched.Catalog(), sched.Hedges()...)
		hcoc := sched.NewHCOC(2, 0.6*base.Makespan()+1, cloud.Large)
		for _, name := range market.PresetNames() {
			m, err := market.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := sched.DefaultOptions()
			opts.Market = m
			check := func(strategy string, s *plan.Schedule) {
				t.Helper()
				where := c.String() + " " + strategy + " under " + name
				checkBill(t, where, s)
				holdTail(s, stats.NewRNG(c.Seed))
				checkBill(t, where+", held tail", s)
				checked++
			}
			for _, alg := range algs {
				s, err := alg.Schedule(w, opts)
				if err != nil {
					t.Fatalf("%v: %s under %s: %v", c, alg.Name(), name, err)
				}
				check(alg.Name(), s)
			}
			// HCOC rents prepaid private VMs beside the public ones.
			s, err := hcoc.Schedule(w, opts)
			if err != nil && !errors.Is(err, sched.ErrDeadlineUnreachable) {
				t.Fatalf("%v: HCOC under %s: %v", c, name, err)
			}
			check("HCOC", s)
		}
	}
	if checked == 0 {
		t.Fatal("no schedule checked")
	}
}

// holdTail holds one lease past its last slot and appends one
// held-but-empty reservation, the mutation fuzzcheck's heldtail strategy
// makes.
func holdTail(s *plan.Schedule, r *stats.RNG) {
	if len(s.VMs) > 0 {
		vm := s.VMs[r.Intn(len(s.VMs))]
		vm.Held = vm.Span() + cloud.BTU*r.Range(0.1, 1.5)
	}
	s.VMs = append(s.VMs, &plan.VM{
		ID: plan.VMID(len(s.VMs)), Type: cloud.Small,
		Region: cloud.USEastVirginia, Held: r.Range(1, 2*cloud.BTU),
	})
}

// checkBill compares every VM's Bill and the schedule's Totals with the
// per-quantity methods and their sums in VM order.
func checkBill(t *testing.T, where string, s *plan.Schedule) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v, per-quantity %v", where, what, got, want)
		}
	}
	var rental, idle float64
	vms := 0
	for _, vm := range s.VMs {
		b := vm.Bill()
		same("Bill.Start", b.Start, vm.LeaseStart())
		same("Bill.End", b.End, vm.LeaseEnd())
		same("Bill.Busy", b.Busy, vm.Busy())
		same("Bill.Paid", b.Paid, vm.PaidSeconds())
		same("Bill.Cost", b.Cost, vm.Cost())
		same("Bill.Idle", b.Idle, vm.Idle())
		rental += vm.Cost()
		idle += vm.Idle()
		if len(vm.Slots) > 0 {
			vms++
		}
	}
	tot := s.Totals()
	same("Totals.Makespan", tot.Makespan, s.Makespan())
	same("Totals.Rental", tot.Rental, rental)
	same("Totals.Transfer", tot.Transfer, s.TransferCost())
	same("Totals.Cost()", tot.Cost(), rental+s.TransferCost())
	same("Totals.Idle", tot.Idle, idle)
	if tot.VMs != vms {
		t.Fatalf("%s: Totals.VMs = %d, VMs with slots %d", where, tot.VMs, vms)
	}
}
