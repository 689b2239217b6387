package main

import (
	"context"
	"net/http/httptest"
	"testing"

	"repro"
)

// BenchmarkRunnerRemoteOverhead times one warm (memo-hit) Simulate dispatch
// through each Runner backend. The local/remote difference is the price of
// the wire — HTTP, JSON, and the service job machinery — which cmd/bench
// records into the BENCH trajectory as the `runner` section.
//
//	go test -run='^$' -bench BenchmarkRunnerRemoteOverhead ./cmd/bench
func BenchmarkRunnerRemoteOverhead(b *testing.B) {
	const (
		warmup  = 5_000
		measure = 20_000
	)
	ctx := context.Background()
	spec := repro.Spec{Kernel: "art", Predictor: "vtage", Counters: repro.FPC}

	bench := func(b *testing.B, r repro.Runner) {
		if _, err := r.Simulate(ctx, spec); err != nil { // pay the simulation once
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Simulate(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		local := repro.NewLocalRunner(repro.RunnerOptions{Warmup: warmup, Measure: measure})
		defer local.Close()
		bench(b, local)
	})
	b.Run("remote", func(b *testing.B) {
		srv, err := repro.NewServer(repro.ServerOptions{Warmup: warmup, Measure: measure})
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer func() {
			ts.Close()
			srv.Close()
		}()
		remote, err := repro.OpenRemoteRunner(ts.URL, repro.RunnerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		defer remote.Close()
		bench(b, remote)
	})
}

// TestMeasureCorpus smoke-tests the corpus section with tiny windows: every
// generator family must report a positive sweep rate.
func TestMeasureCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement smoke needs real (if small) simulations")
	}
	cp, err := measureCorpus(1_000, 4_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cp.Families), len(repro.GeneratorFamilies()); got != want {
		t.Fatalf("corpus measured %d families, want %d", got, want)
	}
	for _, fr := range cp.Families {
		if fr.Specs != corpusProgramsPerFamily*len(corpusPredictors) || fr.SpecsPerSec <= 0 {
			t.Errorf("degenerate family measurement: %+v", fr)
		}
	}
	if cp.SpecsPerSec <= 0 {
		t.Errorf("degenerate overall rate: %+v", cp)
	}
}

// TestMeasureRunnerOverhead smoke-tests the bench section with tiny windows
// so CI keeps the measurement path compiling and running.
func TestMeasureRunnerOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement smoke needs real (if small) simulations")
	}
	rn, err := measureRunnerOverhead(1_000, 4_000)
	if err != nil {
		t.Fatal(err)
	}
	if rn.LocalUsPerCall <= 0 || rn.RemoteUsPerCall <= 0 {
		t.Errorf("degenerate measurement: %+v", rn)
	}
	if rn.RemoteUsPerCall < rn.LocalUsPerCall {
		t.Logf("remote dispatch measured cheaper than local (%+v) — plausible only on a loaded machine", rn)
	}
}
