package ndwf_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/dag/dagtest"
	"repro/internal/fuzzcheck"
	"repro/internal/ndwf"
)

// TestSamplerMatchesSample runs one Sampler over every built-in template,
// montage1 to montage12 and random templates, five seeds each, in shuffled
// order, so each instance is laid out in arrays a larger or a smaller one
// left behind. Every instance must equal Template.Sample's at the same
// seed in its name, its tasks and every structural query.
func TestSamplerMatchesSample(t *testing.T) {
	var tpls []ndwf.Template
	for _, name := range ndwf.TemplateNames() {
		tpl, err := ndwf.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		tpls = append(tpls, tpl)
	}
	for n := 1; n <= 12; n++ {
		tpls = append(tpls, ndwf.MontageND(n))
	}
	for seed := uint64(1); seed <= 24; seed++ {
		tpls = append(tpls, fuzzcheck.RandomTemplate(seed, 1+int(seed)%12))
	}
	type draw struct {
		tpl  ndwf.Template
		seed uint64
	}
	var draws []draw
	for _, tpl := range tpls {
		for seed := uint64(0); seed < 5; seed++ {
			draws = append(draws, draw{tpl, seed*7919 + 3})
		}
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })

	var s ndwf.Sampler
	for _, d := range draws {
		c, err := d.tpl.Check()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Sample(c, d.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.tpl.Sample(d.seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := dagtest.Diff(got, want); err != nil {
			t.Fatalf("%s at seed %d: %v", d.tpl.Name, d.seed, err)
		}
	}
}

// ExampleSampler samples a stream of instances into one reused workflow.
// Each instance is read before the next Sample resets it.
func ExampleSampler() {
	tpl, _ := ndwf.Named("order")
	c, _ := tpl.Check()
	var s ndwf.Sampler
	for seed := uint64(5); seed <= 7; seed++ {
		wf, _ := s.Sample(c, seed)
		fmt.Println(wf.Name, wf.Len(), len(wf.Edges()))
	}
	// Output:
	// order#5 6 6
	// order#6 6 6
	// order#7 7 7
}
