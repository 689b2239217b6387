// Confidence demonstrates the FPC trade-off of Section 5: on the same kernel
// and predictor, plain 3-bit confidence counters deliver more coverage but
// enough mispredictions to lose performance under squash-at-commit recovery,
// while forward probabilistic counters trade a little coverage for >99.5%
// accuracy and turn the loss into a gain.
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
	ctx := context.Background()

	fmt.Println("FPC accuracy/coverage trade-off (squash-at-commit recovery)")
	fmt.Printf("%-10s %-9s %9s %9s %10s %8s\n",
		"kernel", "counters", "coverage", "accuracy", "squashes", "speedup")
	for _, k := range []string{"applu", "namd", "gobmk", "hmmer"} {
		for _, c := range []struct {
			name string
			mode repro.Counters
		}{{"baseline", repro.BaselineCounters}, {"FPC", repro.FPC}} {
			rec, err := r.Simulate(ctx, repro.Spec{
				Kernel:    k,
				Predictor: "vtage",
				Counters:  c.mode,
				Recovery:  repro.SquashAtCommit,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-10s %-9s %8.1f%% %9.4f %10d %8.3f\n",
				k, c.name, 100*rec.Coverage, rec.Accuracy, rec.SquashValue, rec.Speedup)
		}
	}
	fmt.Println("\nFPC counters saturate only after ~129 consecutive correct predictions,")
	fmt.Println("mimicking 7-bit counters with 3 bits of storage plus an LFSR.")
}
