// Service example: drive the simulation service through the
// backend-neutral Runner API — an experiment rendered server-side and a
// spec batch streamed record by record — plus the typed client for
// health/stats observability.
//
// With no arguments it starts an in-process server on a random port — a
// self-contained demo of repro.NewServer + repro.OpenRemoteRunner:
//
//	go run ./examples/service
//
// Given a base URL it talks to a running vpserved daemon instead (this is
// also the CI smoke driver for cmd/vpserved):
//
//	go run ./examples/service http://127.0.0.1:8437
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
)

func main() {
	log.SetFlags(0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	var base string
	if len(os.Args) > 1 {
		base = os.Args[1]
	} else {
		// Self-contained mode: an in-process service on a random port,
		// sized for interactive latency.
		srv, err := repro.NewServer(repro.ServerOptions{Warmup: 2_000, Measure: 8_000})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, srv)
		base = "http://" + ln.Addr().String()
		fmt.Printf("in-process vpserved on %s\n", base)
	}

	c := repro.NewClient(base)
	h, err := c.Health(ctx)
	if err != nil {
		log.Fatalf("healthz: %v", err)
	}
	fmt.Printf("server healthy (up %.1fs)\n", h.UptimeS)

	// The Runner is the backend-neutral face of the same daemon: this block
	// runs unchanged against a LocalRunner.
	r, err := repro.OpenRemoteRunner(base, repro.RunnerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	// A small predictor shoot-out: records arrive in spec order, one
	// batch-sync frame (up to 256 specs) at a time.
	specs := []repro.Spec{
		{Kernel: "art", Predictor: "lvp", Counters: repro.FPC},
		{Kernel: "art", Predictor: "stride", Counters: repro.FPC},
		{Kernel: "art", Predictor: "vtage", Counters: repro.FPC},
		{Kernel: "art", Predictor: "vtage+stride", Counters: repro.FPC},
	}
	fmt.Println("\nart kernel, FPC counters:")
	if err := r.Batch(ctx, specs, func(rec repro.Record) error {
		fmt.Printf("  %-14s IPC %.3f  speedup %.3f\n", rec.Predictor, rec.IPC, rec.Speedup)
		return nil
	}); err != nil {
		log.Fatalf("batch: %v", err)
	}

	// Run Fig. 1 server-side and print the rendered artifact.
	fmt.Println()
	if err := r.Experiment(ctx, "fig1", repro.ExperimentOptions{}, os.Stdout); err != nil {
		log.Fatalf("experiment: %v", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatalf("statsz: %v", err)
	}
	fmt.Printf("\nserver stats: %d simulations run, %d memo hits, %d workers\n",
		stats.MemoMisses, stats.MemoHits, stats.Workers)
}
