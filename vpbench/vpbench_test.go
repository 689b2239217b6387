package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// The same seed gives the same programs, spec list and request orders; a
// different seed gives different generated programs over the same builtin
// matrix, so a held-out seed runs exactly the same way.
func TestSeedDeterminism(t *testing.T) {
	a, err := newWorkloadSet(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newWorkloadSet(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.specs, b.specs) {
		t.Fatal("same seed, different spec lists")
	}
	if !slices.Equal(baselinesFirst(a.specs, stream(7, streamColdOrder, 0)), baselinesFirst(b.specs, stream(7, streamColdOrder, 0))) {
		t.Fatal("same seed, different cold order")
	}
	for _, s := range []int{streamColdOrder, streamWarmOrder, streamFleetOrder} {
		if !slices.Equal(shuffled(len(a.specs), stream(7, uint64(s), 3)), shuffled(len(b.specs), stream(7, uint64(s), 3))) {
			t.Fatalf("same seed, different request order on stream %d", s)
		}
	}
	if slices.Equal(shuffled(len(a.specs), stream(7, streamColdOrder, 0)), shuffled(len(a.specs), stream(8, streamColdOrder, 0))) {
		t.Fatal("different seeds, same request order")
	}

	held, err := newWorkloadSet(0xdecafbad)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(harness.DedupSpecs(harness.Fig4Specs())) + 9*len(isa.Families())*programsPerFamily; len(a.specs) != want {
		t.Fatalf("seed 7 has %d specs, want %d", len(a.specs), want)
	}
	if len(held.specs) != len(a.specs) {
		t.Fatalf("held-out seed has %d specs, seed 7 has %d", len(held.specs), len(a.specs))
	}
	fig4 := harness.DedupSpecs(harness.Fig4Specs())
	for _, ws := range []*workloadSet{a, held} {
		for _, sp := range fig4 {
			if !slices.Contains(ws.specs, sp.Canonical()) {
				t.Fatalf("spec set lacks Fig. 4 spec %s", sp.Identity())
			}
		}
	}
	for i := range a.programs {
		if harness.ProgramID(a.programs[i]) == harness.ProgramID(held.programs[i]) {
			t.Fatalf("program %d is the same under two seeds", i)
		}
		if harness.ProgramID(a.programs[i]) != harness.ProgramID(b.programs[i]) {
			t.Fatalf("program %d differs under one seed", i)
		}
	}
}

// Records delivered through the Runner equal the direct emu/pipeline
// reference byte for byte, and a tampered record is counted as a failure.
func TestTamperedRecordIsCounted(t *testing.T) {
	ws, err := newWorkloadSet(1)
	if err != nil {
		t.Fatal(err)
	}
	ws.specs = matrix("gzip") // one workload keeps the test short
	ctx := context.Background()
	runs, _, err := direct(ctx, ws, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceRecords(runs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := repro.OpenLocalRunner(repro.RunnerOptions{Warmup: warmup, Measure: measure, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var got []harness.Record
	if err := r.Batch(ctx, ws.specs, func(rec harness.Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	chk := &checker{ref: ref}
	if !chk.allOK(ws.specs, got) {
		t.Fatalf("untampered records mismatch: %s", chk.firstBad)
	}

	tampered := []func(*harness.Record){
		func(r *harness.Record) { r.Cycles++ },
		func(r *harness.Record) { r.IPC = math.Nextafter(r.IPC, math.Inf(1)) },
		func(r *harness.Record) { r.Counters = "custom" },
	}
	for i, f := range tampered {
		recs := slices.Clone(got)
		f(&recs[3])
		chk := &checker{ref: ref}
		if chk.allOK(ws.specs, recs) || chk.mismatches != 1 {
			t.Fatalf("tamper %d: allOK passed or counted %d mismatches, want 1", i, chk.mismatches)
		}
	}
	chk = &checker{ref: ref}
	if chk.allOK(ws.specs, got[1:]) {
		t.Fatal("a missing record went uncounted")
	}
}

// The exact counters of a spec set are the sum over its runs, so the same
// runs always give identical values.
func TestCountersAreExact(t *testing.T) {
	ws, err := newWorkloadSet(1)
	if err != nil {
		t.Fatal(err)
	}
	ws.specs = matrix("mcf")[:3]
	var got []map[string]float64
	for _, rec := range []*spanRecorder{nil, newSpanRecorder()} {
		// With a recorder every spec runs twice, traced and not, and the
		// pair must agree.
		runs, _, err := direct(context.Background(), ws, 2, rec)
		if err != nil {
			t.Fatal(err)
		}
		if traced := rec != nil; traced != (runs[0].plainT > 0) {
			t.Fatalf("recorder %v: untraced twin time %v", traced, runs[0].plainT)
		}
		stats := make([]*pipeline.Stats, len(runs))
		for j := range runs {
			stats[j] = &runs[j].stats
		}
		got = append(got, counters(stats))
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatalf("two runs of one spec set gave different counters:\n%v\n%v", got[0], got[1])
	}
	if got[0]["pipeline.committed_uops"] != 3*measure {
		t.Fatalf("committed %v, want %d", got[0]["pipeline.committed_uops"], 3*measure)
	}
}

// The guard is keyed by the inputs, not by the build: a run whose records or
// counters differ from an earlier run of the same seed over the same inputs
// fails, whichever binary made the earlier run.
func TestGuardComparesRunsOfOneInput(t *testing.T) {
	ws, err := newWorkloadSet(5)
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	run := func(digest string, counter float64) *runCtx {
		rc := &runCtx{seed: 5, out: out, ws: ws, info: map[string]any{
			"reference_digest": digest,
			"counters":         map[string]float64{"pipeline.sim_cycles": counter},
		}}
		if err := rc.guard("cold-sweep"); err != nil {
			t.Fatal(err)
		}
		return rc
	}
	if rc := run("d1", 10); len(rc.problems) != 0 {
		t.Fatalf("first run failed: %v", rc.problems)
	}
	if rc := run("d1", 10); len(rc.problems) != 0 {
		t.Fatalf("identical run failed: %v", rc.problems)
	}
	if rc := run("d2", 10); len(rc.problems) != 1 {
		t.Fatalf("changed records: %d problems, want 1", len(rc.problems))
	}
	if rc := run("d1", 11); len(rc.problems) != 1 {
		t.Fatalf("changed counters: %d problems, want 1", len(rc.problems))
	}
	other, err := newWorkloadSet(6)
	if err != nil {
		t.Fatal(err)
	}
	if inputKey(other) == inputKey(ws) {
		t.Fatal("two spec sets share an input key")
	}
}

// A run's rates are multiplied, and its latencies divided, by the host's
// slowdown; set-up times and the raw values in the result file are not.
func TestEndToEndScaledBySlowdown(t *testing.T) {
	w := window{lat: []float64{10, 20, 30}, recs: 40, uops: 4e6, wall: 2 * time.Second}
	rc := &runCtx{metrics: map[string]float64{}, info: map[string]any{}}
	rc.endToEnd([]time.Duration{time.Millisecond}, []window{w}, 2)
	want := map[string]float64{"specs_per_s": 40, "sim_uops_per_s": 4e6, "latency_p50_ms": 10, "setup_s": 0.001}
	for k, v := range want {
		if rc.metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, rc.metrics[k], v)
		}
	}
	if rc.info["raw_specs_per_s"] != 20.0 || rc.info["raw_latency_p50_ms"] != 20.0 {
		t.Errorf("raw values %v, %v; want 20, 20", rc.info["raw_specs_per_s"], rc.info["raw_latency_p50_ms"])
	}
}

// The slowdown is the median sample of the span over calibRef, and a span
// without samples takes one.
func TestHostClockSlowdown(t *testing.T) {
	h := &hostClock{}
	h.all = []time.Duration{calibRef, 3 * calibRef, 2 * calibRef}
	h.spent = 6 * calibRef
	m := hostMark{spent: calibRef, n: 1}
	if s := h.slowdown(m); s != 2.5 {
		t.Fatalf("slowdown %v, want 2.5", s)
	}
	if d := h.spentSince(m); d != 5*calibRef {
		t.Fatalf("spent %v, want %v", d, 5*calibRef)
	}
	end := h.mark()
	if s := h.slowdown(end); s <= 0 || len(h.all) != 4 {
		t.Fatalf("empty span: slowdown %v after %d samples, want one new sample", s, len(h.all))
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 2320)
	for i := range xs {
		xs[i] = float64(i)
	}
	if p, _, beyond := tail(xs); p != 99 || beyond != 23 {
		t.Fatalf("tail of 2320 samples: p%v with %d beyond, want p99 with 23", p, beyond)
	}
	if p, _, beyond := tail(xs[:225]); p != 95 || beyond != 11 {
		t.Fatalf("tail of 225 samples: p%v with %d beyond, want p95 with 11", p, beyond)
	}
}

// BENCHMARK.json at the repository root is generated from the metric
// tables; regenerate it with `vpbench -benchmark-json` after changing them.
func TestBenchmarkJSONIsCurrent(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var have any
	if err := json.Unmarshal(b, &have); err != nil {
		t.Fatal(err)
	}
	wantB, _ := json.Marshal(benchmarkJSON())
	var want any
	json.Unmarshal(wantB, &want)
	if !reflect.DeepEqual(have, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate with vpbench -benchmark-json:\nhave %s\nwant %s", b, wantB)
	}
}
