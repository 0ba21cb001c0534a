package core

import (
	"testing"

	"pds2/internal/market"
)

func TestRunDefaultScenario(t *testing.T) {
	res, err := Run(Scenario{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != market.StateComplete {
		t.Fatalf("state = %v", res.State)
	}
	if res.Accuracy < 0.85 {
		t.Fatalf("accuracy = %v", res.Accuracy)
	}
	var paid uint64
	for _, v := range res.Payouts {
		paid += v
	}
	if paid != 100_000 {
		t.Fatalf("payouts sum to %d", paid)
	}
	if res.AuditEvents == 0 || res.TotalGas == 0 || res.Blocks == 0 {
		t.Fatalf("missing accounting: %+v", res)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Scenario{Seed: 7, Providers: 3, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Scenario{Seed: 7, Providers: 3, Executors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Accuracy != b.Accuracy || a.TotalGas != b.TotalGas || a.Workload != b.Workload {
		t.Fatal("same-seed scenarios diverged")
	}
}

func TestRunScalesProviders(t *testing.T) {
	res, err := Run(Scenario{Seed: 2, Providers: 8, Executors: 4, SamplesEach: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.State != market.StateComplete {
		t.Fatalf("state = %v", res.State)
	}
	if len(res.Payouts) < 8 {
		t.Fatalf("only %d actors paid", len(res.Payouts))
	}
}

func TestScenarioDefaults(t *testing.T) {
	var s Scenario
	s.Defaults()
	if s.Providers == 0 || s.Executors == 0 || s.Budget == 0 || s.MinProviders == 0 {
		t.Fatalf("defaults not filled: %+v", s)
	}
}
