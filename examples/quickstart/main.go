// Quickstart: the smallest complete PDS² marketplace run.
//
// One consumer submits a training workload with an escrowed reward;
// three providers hold eligible sensor data in encrypted vaults; two
// TEE-backed executors train and aggregate the model; the governance
// layer verifies every step and settles the rewards.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pds2/internal/core"
	"pds2/internal/market"
)

func main() {
	res, err := core.Run(core.Scenario{
		Seed:        42,
		Providers:   3,
		Executors:   2,
		SamplesEach: 200,
		Budget:      90_000,
		ExecutorFee: 1_000, // 10% of the budget to executors
	})
	if err != nil {
		log.Fatalf("quickstart: %v", err)
	}

	fmt.Println("PDS² quickstart")
	fmt.Println("===============")
	fmt.Printf("workload contract : %s\n", res.Workload)
	fmt.Printf("final state       : %v\n", res.State)
	fmt.Printf("model accuracy    : %.4f (held-out test set)\n", res.Accuracy)
	fmt.Printf("chain height      : %d blocks, %d gas\n", res.Blocks, res.TotalGas)
	fmt.Printf("audit trail       : %d on-chain events\n", res.AuditEvents)
	fmt.Println("reward settlement :")
	var total uint64
	for addr, amount := range res.Payouts {
		total += amount
		fmt.Printf("  %s received %d tokens\n", addr.Short(), amount)
	}
	fmt.Printf("  (total %d = the escrowed budget, settled exactly)\n", total)

	if res.State != market.StateComplete {
		log.Fatalf("quickstart: expected a complete workload, got %v", res.State)
	}
}
