// Quickstart: simulate one kernel with the paper's recommended
// configuration — the VTAGE + 2D-Stride hybrid with FPC confidence and
// squash-at-commit recovery — through the backend-neutral Runner API, and
// compare it with the no-VP baseline. Swap NewLocalRunner for
// OpenRemoteRunner("http://127.0.0.1:8437", repro.RunnerOptions{}) and the
// same code runs against a vpserved daemon.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	r := repro.NewLocalRunner(repro.RunnerOptions{})
	defer r.Close()

	rec, err := r.Simulate(context.Background(), repro.Spec{
		Kernel:    "art",
		Predictor: "vtage+stride",
		Counters:  repro.FPC,
		Recovery:  repro.SquashAtCommit,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Practical data value speculation, quickstart")
	fmt.Printf("kernel %s with %s:\n", rec.Kernel, rec.Predictor)
	fmt.Printf("  IPC       %.3f\n", rec.IPC)
	fmt.Printf("  speedup   %.2fx over the same machine without value prediction\n", rec.Speedup)
	fmt.Printf("  coverage  %.1f%% of eligible µops used a prediction\n", 100*rec.Coverage)
	fmt.Printf("  accuracy  %.4f of used predictions were correct\n", rec.Accuracy)
	fmt.Printf("  recovery  %d commit-time value squashes\n", rec.SquashValue)
}
