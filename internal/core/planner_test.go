package core

import (
	"math"
	"strings"
	"testing"

	"rnascale/internal/simdata"
)

// The planner's reason for existing: its predictions must track the
// simulation closely enough to base scheduling decisions on.
func TestPredictTracksRun(t *testing.T) {
	ds := tinyDS(t)
	for _, cfg := range []Config{
		tinyConfig(),
		func() Config { c := tinyConfig(); c.Scheme = S1; return c }(),
		func() Config { c := tinyConfig(); c.Assemblers = []string{"velvet"}; return c }(),
		// Conventional runs one cluster sized for the whole workflow
		// from first boot to the end of PC.
		func() Config { c := tinyConfig(); c.Pattern = Conventional; c.Assemblers = []string{"ray"}; return c }(),
		func() Config {
			c := tinyConfig()
			c.Pattern = Conventional
			c.Assemblers = []string{"ray", "abyss"}
			return c
		}(),
	} {
		cfg.EvaluateAgainstTruth = false
		plan, err := Predict(ds, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Assemblers, err)
		}
		rep, err := Run(ds, cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Assemblers, err)
		}
		ttcRatio := plan.TTC.Seconds() / rep.TTC.Seconds()
		if ttcRatio < 0.75 || ttcRatio > 1.35 {
			t.Errorf("%v %v %v: predicted TTC %v vs actual %v (ratio %.2f)",
				cfg.Assemblers, cfg.Scheme, cfg.Pattern, plan.TTC, rep.TTC, ttcRatio)
		}
		costRatio := plan.CostUSD / rep.CostUSD
		if costRatio < 0.6 || costRatio > 1.6 {
			t.Errorf("%v %v %v: predicted cost $%.2f vs actual $%.2f (ratio %.2f)",
				cfg.Assemblers, cfg.Scheme, cfg.Pattern, plan.CostUSD, rep.CostUSD, costRatio)
		}
		if plan.AssemblyNodes != rep.AssemblyNodes {
			t.Errorf("predicted %d PB nodes, actual %d", plan.AssemblyNodes, rep.AssemblyNodes)
		}
		if !strings.Contains(plan.String(), "TTC") {
			t.Error("plan string malformed")
		}
	}
}

// Prediction-time feasibility: the planner rejects the Table IV "X"
// configurations without running anything.
func TestPredictRejectsInfeasible(t *testing.T) {
	prof := simdata.Tiny()
	prof.FullScale = simdata.PCrispa().FullScale
	prof.FullScale.AssemblyKmers = simdata.Tiny().FullScale.AssemblyKmers
	ds, err := simdata.Generate(prof)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Pattern = DistributedStatic
	cfg.InstanceType = "c3.2xlarge"
	if _, err := Predict(ds, cfg); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("undersized plan accepted: %v", err)
	}
	// Sharded pre-processing restores PA feasibility, but the MPI
	// assembly jobs still exceed 16 GB — the plan stays infeasible.
	cfg.ParallelPreprocessShards = 4
	if _, err := Predict(ds, cfg); err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("assembly-infeasible plan accepted: %v", err)
	}
	// On r3.2xlarge everything fits.
	cfg.InstanceType = "r3.2xlarge"
	if _, err := Predict(ds, cfg); err != nil {
		t.Errorf("feasible plan rejected: %v", err)
	}
}

func TestOptimizeObjectives(t *testing.T) {
	ds := tinyDS(t)
	var candidates []Config
	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, contrailNodes := range []int{2, 4, 8} {
			cfg := tinyConfig()
			cfg.EvaluateAgainstTruth = false
			cfg.Scheme = scheme
			cfg.ContrailNodes = contrailNodes
			candidates = append(candidates, cfg)
		}
	}
	fast, err := Optimize(ds, candidates, MinimizeTTC)
	if err != nil {
		t.Fatal(err)
	}
	cheap, err := Optimize(ds, candidates, MinimizeCost)
	if err != nil {
		t.Fatal(err)
	}
	if fast.TTC > cheap.TTC {
		t.Errorf("TTC-optimal plan (%v) slower than cost-optimal (%v)", fast.TTC, cheap.TTC)
	}
	if cheap.CostUSD > fast.CostUSD {
		t.Errorf("cost-optimal plan ($%.2f) pricier than TTC-optimal ($%.2f)", cheap.CostUSD, fast.CostUSD)
	}
	// The optimizer's choice must beat the worst candidate on its
	// objective.
	var worstTTC float64
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			continue
		}
		worstTTC = math.Max(worstTTC, p.TTC.Seconds())
	}
	if fast.TTC.Seconds() >= worstTTC {
		t.Error("optimizer returned the worst TTC candidate")
	}
}

func TestFrontierParetoInvariants(t *testing.T) {
	ds := tinyDS(t)
	var candidates []Config
	for _, scheme := range []MatchingScheme{S1, S2} {
		for _, cn := range []int{2, 4, 8, 16} {
			cfg := tinyConfig()
			cfg.EvaluateAgainstTruth = false
			cfg.Scheme = scheme
			cfg.ContrailNodes = cn
			candidates = append(candidates, cfg)
		}
	}
	frontier, err := Frontier(ds, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) == 0 || len(frontier) > len(candidates) {
		t.Fatalf("frontier size %d", len(frontier))
	}
	// Sorted by TTC ascending, and cost must be non-increasing along
	// the frontier (otherwise a point would be dominated).
	for i := 1; i < len(frontier); i++ {
		if frontier[i].TTC < frontier[i-1].TTC {
			t.Fatal("frontier not TTC-sorted")
		}
		if frontier[i].CostUSD > frontier[i-1].CostUSD {
			t.Errorf("frontier point %d dominated: TTC %v/$%.2f after TTC %v/$%.2f",
				i, frontier[i].TTC, frontier[i].CostUSD, frontier[i-1].TTC, frontier[i-1].CostUSD)
		}
	}
	// No frontier point is dominated by any candidate plan.
	for _, cfg := range candidates {
		p, err := Predict(ds, cfg)
		if err != nil {
			continue
		}
		for _, f := range frontier {
			if p.TTC < f.TTC && p.CostUSD < f.CostUSD {
				t.Errorf("frontier point (%v, $%.2f) dominated by (%v, $%.2f)",
					f.TTC, f.CostUSD, p.TTC, p.CostUSD)
			}
		}
	}
	// The optimizer endpoints coincide with the frontier's extremes.
	fast, _ := Optimize(ds, candidates, MinimizeTTC)
	cheap, _ := Optimize(ds, candidates, MinimizeCost)
	if fast.TTC != frontier[0].TTC {
		t.Errorf("fastest frontier point %v != optimizer %v", frontier[0].TTC, fast.TTC)
	}
	if cheap.CostUSD != frontier[len(frontier)-1].CostUSD {
		t.Errorf("cheapest frontier point $%.2f != optimizer $%.2f",
			frontier[len(frontier)-1].CostUSD, cheap.CostUSD)
	}
	if _, err := Frontier(ds, nil); err == nil {
		t.Error("empty candidates accepted")
	}
}

func TestOptimizeErrors(t *testing.T) {
	ds := tinyDS(t)
	if _, err := Optimize(ds, nil, MinimizeTTC); err == nil {
		t.Error("empty candidates accepted")
	}
	bad := tinyConfig()
	bad.Assemblers = []string{"nope"}
	if _, err := Optimize(ds, []Config{bad}, MinimizeTTC); err == nil {
		t.Error("all-infeasible candidates accepted")
	}
	if MinimizeTTC.String() != "TTC" || MinimizeCost.String() != "cost" {
		t.Error("objective strings")
	}
}
