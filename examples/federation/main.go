// Federation: schedule a data-heavy workflow across EC2 regions and see
// the effect the paper's Table II transfer prices have. The paper notes
// that "strategies that tend to allocate more VMs are better suited for
// tasks with large data dependencies where the VM should be as close as
// possible to the data" — this example makes the trade-off concrete by
// comparing a data-local plan against one that ships intermediate data
// between continents.
//
// Run with:
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"

	"repro/internal/cloud"
	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/validate"
)

func main() {
	// A two-site analytics pipeline: raw data lives in Dublin, the report
	// consumers in Virginia. Extract/clean produce 20 GB intermediates;
	// the summarize step reduces them to 100 MB.
	wf := dag.New("two-site-pipeline")
	extract := wf.AddTask("extract", 1800)
	clean := wf.AddTask("clean", 2400)
	summarize := wf.AddTask("summarize", 1200)
	report := wf.AddTask("report", 600)
	wf.AddEdge(extract, clean, 20<<30)
	wf.AddEdge(clean, summarize, 20<<30)
	wf.AddEdge(summarize, report, 100<<20)
	if err := wf.Freeze(); err != nil {
		log.Fatal(err)
	}
	p := cloud.NewPlatform()

	// Plan A — data locality: keep the heavy stages in Dublin on one VM,
	// ship only the 100 MB summary to Virginia.
	local := func() *plan.Schedule {
		b := plan.NewBuilder(wf, p, cloud.EUDublin)
		eu := b.NewVM(cloud.Large)
		us := b.NewVMIn(cloud.Small, cloud.USEastVirginia)
		b.PlaceOn(extract, eu)
		b.PlaceOn(clean, eu)
		b.PlaceOn(summarize, eu)
		b.PlaceOn(report, us)
		return b.Done()
	}()

	// Plan B — naive split: alternate stages between the regions, moving
	// every 20 GB intermediate across the Atlantic.
	naive := func() *plan.Schedule {
		b := plan.NewBuilder(wf, p, cloud.EUDublin)
		eu1 := b.NewVM(cloud.Large)
		us1 := b.NewVMIn(cloud.Large, cloud.USEastVirginia)
		eu2 := b.NewVMIn(cloud.Large, cloud.EUDublin)
		us2 := b.NewVMIn(cloud.Small, cloud.USEastVirginia)
		b.PlaceOn(extract, eu1)
		b.PlaceOn(clean, us1)
		b.PlaceOn(summarize, eu2)
		b.PlaceOn(report, us2)
		return b.Done()
	}()

	for _, c := range []struct {
		name string
		s    *plan.Schedule
	}{{"data-local", local}, {"naive split", naive}} {
		if err := validate.PlanSim(c.s); err != nil {
			log.Fatalf("%s: %v", c.name, err)
		}
		fmt.Printf("%-12s makespan %7.0fs  rent $%6.3f  transfer $%6.3f  total $%6.3f\n",
			c.name, c.s.Makespan(), c.s.RentalCost(), c.s.TransferCost(), c.s.TotalCost())
	}
	fmt.Println()
	fmt.Printf("shipping the intermediates costs $%.2f extra and %.0f s of extra makespan —\n",
		naive.TotalCost()-local.TotalCost(), naive.Makespan()-local.Makespan())
	fmt.Println("the locality argument the paper makes for data-intensive workflows.")
}
