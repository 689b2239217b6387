// Command bench measures the simulator's hot-path performance and writes a
// machine-readable BENCH_<label>.json record (DESIGN.md §5.4), giving every
// PR a trajectory to beat. Three measurements are taken:
//
//   - steady: ns/µop and allocs/µop of the simulate loop alone, via repeated
//     Sim.Advance chunks on a warm machine (construction, trace generation
//     and warmup excluded), per predictor configuration;
//   - fig4 at one worker: wall-clock of the full Fig. 4 spec batch run
//     sequentially — the single-thread throughput headline number;
//   - fig4 parallel: the same batch across the worker pool.
//
// Pass -before to embed a prior record and report speedups against it:
//
//	go run ./cmd/bench -label pr2 -before BENCH_seed.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/benchkit"
	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
)

// SteadyResult is the per-predictor steady-state measurement.
type SteadyResult struct {
	Predictor    string  `json:"predictor"`
	NsPerUop     float64 `json:"ns_per_uop"`
	AllocsPerUop float64 `json:"allocs_per_uop"`
	UopsPerSec   float64 `json:"uops_per_sec"`
}

// Fig4Result is the Fig. 4 batch wall-clock measurement. ParallelSpeedup is
// null when the parallel pass could not actually run in parallel (effective
// parallelism of 1): a pinned GOMAXPROCS or a single-CPU machine makes the
// two passes measure the same thing, and recording their ratio as a
// "speedup" would be noise presented as signal.
type Fig4Result struct {
	Specs            int      `json:"specs"`
	Warmup           uint64   `json:"warmup_uops"`
	Measure          uint64   `json:"measure_uops"`
	UopsTotal        uint64   `json:"uops_total"`
	WallSeconds1W    float64  `json:"wall_s_1_worker"`
	UopsPerSec1W     float64  `json:"uops_per_sec_1_worker"`
	WallSecondsPar   float64  `json:"wall_s_parallel"`
	RequestedWorkers int      `json:"requested_workers"`
	EffectiveProcs   int      `json:"effective_gomaxprocs"`
	NumCPU           int      `json:"num_cpu"`
	ParallelSpeedup  *float64 `json:"parallel_speedup"`
}

// AblationResult is the ablation-batch measurement: the union of the four
// sensitivity sweeps' declared spec sets (abl-fpc, abl-hist, abl-loads,
// abl-width — extended Specs with explicit vectors, history lengths,
// loads-only scope and machine widths) run across the worker pool through
// the same memoized path as the figures.
type AblationResult struct {
	Specs       int     `json:"specs"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_s"`
	SpecsPerSec float64 `json:"specs_per_sec"`
}

// RunnerResult measures the facade's backend-neutral dispatch overhead: the
// same warm (memo-hit) spec repeatedly dispatched through a LocalRunner and
// through a remote runner against an in-process HTTP server. Simulation cost
// cancels out, so the numbers isolate what a caller pays per call for each
// backend — scheduling and record flattening locally; HTTP, JSON and the
// job machinery remotely.
type RunnerResult struct {
	WarmCalls         int     `json:"warm_calls"`
	LocalUsPerCall    float64 `json:"local_us_per_call"`
	RemoteUsPerCall   float64 `json:"remote_us_per_call"`
	OverheadUsPerCall float64 `json:"overhead_us_per_call"`
	OverheadRatio     float64 `json:"overhead_ratio"`
}

// WarmStartResult measures the persistent store's cross-process leverage:
// the deduplicated fig4 batch runs twice through store-backed sessions over
// one store directory — a cold pass that simulates and persists, then a
// fresh session (a new process, morally) that must be served entirely from
// disk. The speedup is the headline warm-start win; zero warm misses is the
// correctness criterion.
type WarmStartResult struct {
	Specs         int     `json:"specs"`
	Workers       int     `json:"workers"`
	ColdSeconds   float64 `json:"cold_wall_s"`
	WarmSeconds   float64 `json:"warm_wall_s"`
	WarmSpeedup   float64 `json:"warm_speedup"`
	WarmStoreHits uint64  `json:"warm_store_hits"`
	WarmMisses    uint64  `json:"warm_misses"`
}

// CorpusFamilyResult is one generator family's sweep rate within the corpus
// measurement.
type CorpusFamilyResult struct {
	Family      string  `json:"family"`
	Specs       int     `json:"specs"`
	WallSeconds float64 `json:"wall_s"`
	SpecsPerSec float64 `json:"specs_per_sec"`
}

// CorpusResult measures the bring-your-own-workload path end to end:
// deterministically generated programs (genprog's families) registered as
// first-class content-addressed workloads and swept across a predictor list
// through the same memoized session path the builtin kernels use. The rate
// is reported per family because the families stress different machine
// behaviour (branchy: control flow; memory: loads; mixed: both), so a
// regression can be localized to the path that caused it.
type CorpusResult struct {
	ProgramsPerFamily int                  `json:"programs_per_family"`
	Predictors        []string             `json:"predictors"`
	Workers           int                  `json:"workers"`
	Families          []CorpusFamilyResult `json:"families"`
	SpecsPerSec       float64              `json:"specs_per_sec"`
}

// ServerResult measures the service layer (internal/service) end to end:
// several concurrent clients submit the same fig4 spec batch over HTTP to
// an in-process server, so the number folds in scheduling, streaming, and —
// because the batches overlap — the serving leverage of the shared memo.
type ServerResult struct {
	Clients     int     `json:"clients"`
	Workers     int     `json:"workers"`
	UniqueSpecs int     `json:"unique_specs"`
	SpecsServed int     `json:"specs_served"`
	WallSeconds float64 `json:"wall_s"`
	SpecsPerSec float64 `json:"specs_per_sec"`
}

// FleetThroughputPoint is the fig4 batch rate through a ShardedRunner at
// one fleet size (cold shards, so it folds in scatter, simulation across
// the shard pools, and ordered gather).
type FleetThroughputPoint struct {
	Shards      int     `json:"shards"`
	Specs       int     `json:"specs"`
	WallSeconds float64 `json:"wall_s"`
	SpecsPerSec float64 `json:"specs_per_sec"`
}

// FleetResult measures the fleet tier (DESIGN.md §12): batch throughput at
// 1/2/3 shards, and the batched wire path's warm dispatch cost against the
// per-call baseline the Runner section tracks. BatchedSpeedup is the
// headline — how much cheaper one warm spec travels inside a batch-sync
// frame than as its own /v1/simulate round trip.
type FleetResult struct {
	WarmCalls        int                    `json:"warm_calls"`
	PerCallUs        float64                `json:"warm_per_call_us"`
	BatchedUsPerSpec float64                `json:"warm_batched_us_per_spec"`
	BatchedSpeedup   float64                `json:"batched_vs_per_call"`
	Throughput       []FleetThroughputPoint `json:"throughput"`
}

// Record is the full benchmark record written to BENCH_<label>.json.
type Record struct {
	Label       string             `json:"label"`
	CreatedUnix int64              `json:"created_unix"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Note        string             `json:"note,omitempty"`
	Steady      []SteadyResult     `json:"steady,omitempty"`
	Fig4        *Fig4Result        `json:"fig4,omitempty"`
	WarmStart   *WarmStartResult   `json:"warm_start,omitempty"`
	Ablation    *AblationResult    `json:"ablation,omitempty"`
	Corpus      *CorpusResult      `json:"corpus,omitempty"`
	Server      *ServerResult      `json:"server,omitempty"`
	Runner      *RunnerResult      `json:"runner,omitempty"`
	Fleet       *FleetResult       `json:"fleet,omitempty"`
	Before      *Record            `json:"before,omitempty"`
	Speedups    map[string]float64 `json:"speedup_vs_before,omitempty"`
}

func main() {
	label := flag.String("label", "dev", "record label; output file is BENCH_<label>.json")
	outDir := flag.String("out", ".", "output directory")
	before := flag.String("before", "", "prior BENCH_*.json to embed and compare against")
	kernel := flag.String("kernel", "gzip", "kernel for the steady-state measurement")
	warmup := flag.Uint64("warmup", 20_000, "fig4 warmup µops per simulation")
	measure := flag.Uint64("measure", 80_000, "fig4 measured µops per simulation")
	workers := flag.Int("workers", 0, "parallel fig4 workers (<=0: GOMAXPROCS)")
	quick := flag.Bool("quick", false, "shrink windows for a fast smoke record (CI)")
	flag.Parse()

	if *quick {
		*warmup, *measure = 5_000, 20_000
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	rec := &Record{
		Label:       *label,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	fmt.Fprintf(os.Stderr, "bench: steady-state simulate loop on %q\n", *kernel)
	for _, p := range benchkit.SteadyPredictors {
		sr, err := measureSteady(*kernel, p, *quick)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "  %-14s %7.1f ns/uop  %6.4f allocs/uop  %9.0f uops/s\n",
			p, sr.NsPerUop, sr.AllocsPerUop, sr.UopsPerSec)
		rec.Steady = append(rec.Steady, sr)
	}

	fmt.Fprintf(os.Stderr, "bench: fig4 batch (%d+%d µops per sim)\n", *warmup, *measure)
	f4, err := measureFig4(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	parSp := "speedup n/a"
	if f4.ParallelSpeedup != nil {
		parSp = fmt.Sprintf("%.2fx", *f4.ParallelSpeedup)
	}
	fmt.Fprintf(os.Stderr, "  %d specs: %.2fs at 1 worker (%.0f uops/s), %.2fs at %d workers (%s)\n",
		f4.Specs, f4.WallSeconds1W, f4.UopsPerSec1W, f4.WallSecondsPar, f4.RequestedWorkers, parSp)
	rec.Fig4 = &f4

	fmt.Fprintf(os.Stderr, "bench: warm start (fig4 batch, cold store-backed pass vs store-served pass)\n")
	ws, err := measureWarmStart(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "  %d specs: %.2fs cold, %.3fs warm (%.0fx, %d store hits, %d misses)\n",
		ws.Specs, ws.ColdSeconds, ws.WarmSeconds, ws.WarmSpeedup, ws.WarmStoreHits, ws.WarmMisses)
	rec.WarmStart = &ws

	fmt.Fprintf(os.Stderr, "bench: ablation batch (abl-fpc + abl-hist + abl-loads + abl-width, memoized path)\n")
	ab, err := measureAblation(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "  %d specs in %.2fs = %.1f specs/s (%d workers)\n",
		ab.Specs, ab.WallSeconds, ab.SpecsPerSec, ab.Workers)
	rec.Ablation = &ab

	fmt.Fprintf(os.Stderr, "bench: generated-program corpus sweep (%d programs/family x %d predictors)\n",
		corpusProgramsPerFamily, len(corpusPredictors))
	cp, err := measureCorpus(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	for _, fr := range cp.Families {
		fmt.Fprintf(os.Stderr, "  %-8s %d specs in %.2fs = %.1f specs/s\n",
			fr.Family, fr.Specs, fr.WallSeconds, fr.SpecsPerSec)
	}
	rec.Corpus = &cp

	fmt.Fprintf(os.Stderr, "bench: vpserved throughput (fig4 batch x %d overlapping clients over HTTP)\n", serverClients)
	sv, err := measureServer(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "  %d specs served in %.2fs = %.0f specs/s (%d unique, %d workers)\n",
		sv.SpecsServed, sv.WallSeconds, sv.SpecsPerSec, sv.UniqueSpecs, sv.Workers)
	rec.Server = &sv

	fmt.Fprintf(os.Stderr, "bench: runner dispatch overhead (warm spec, local vs remote backend)\n")
	rn, err := measureRunnerOverhead(*warmup, *measure)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "  %d warm calls: %.1f µs/call local, %.1f µs/call remote (+%.1f µs, %.1fx)\n",
		rn.WarmCalls, rn.LocalUsPerCall, rn.RemoteUsPerCall, rn.OverheadUsPerCall, rn.OverheadRatio)
	rec.Runner = &rn

	fmt.Fprintf(os.Stderr, "bench: fleet tier (sharded fig4 batches; batched vs per-call warm dispatch)\n")
	fl, err := measureFleet(*warmup, *measure, *workers)
	if err != nil {
		fatal(err)
	}
	for _, p := range fl.Throughput {
		fmt.Fprintf(os.Stderr, "  %d shard(s): %d specs in %.2fs = %.1f specs/s\n",
			p.Shards, p.Specs, p.WallSeconds, p.SpecsPerSec)
	}
	fmt.Fprintf(os.Stderr, "  warm dispatch: %.1f µs/call per-call, %.2f µs/spec batched (%.1fx)\n",
		fl.PerCallUs, fl.BatchedUsPerSpec, fl.BatchedSpeedup)
	rec.Fleet = &fl

	if *before != "" {
		prev, err := loadRecord(*before)
		if err != nil {
			fatal(err)
		}
		prev.Before = nil // keep records one level deep
		rec.Before = prev
		rec.Speedups = speedups(rec, prev)
		for k, v := range rec.Speedups {
			fmt.Fprintf(os.Stderr, "  speedup vs %s: %s = %.2fx\n", prev.Label, k, v)
		}
	}

	out := filepath.Join(*outDir, "BENCH_"+*label+".json")
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println(out)
}

// measureSteady times Sim.Advance chunks on a warm machine and counts
// steady-state allocations, mirroring BenchmarkSteadyStateSimulate — the
// windows, predictor coverage and build logic are shared through
// internal/benchkit. The allocation probe runs after the timing rounds, deep
// in the trace, where per-PC speculative-window churn would show up.
func measureSteady(kernel, predictor string, quick bool) (SteadyResult, error) {
	traceUops, chunk, rounds := benchkit.TraceUops, uint64(benchkit.Chunk), 20
	allocProbe := uint64(200_000)
	if quick {
		traceUops, rounds, allocProbe = 400_000, 5, 50_000
	}
	tr, err := benchkit.SteadyTrace(kernel, traceUops)
	if err != nil {
		return SteadyResult{}, err
	}

	sim, err := benchkit.NewWarmSim(tr, predictor)
	if err != nil {
		return SteadyResult{}, err
	}
	var elapsed time.Duration
	var uops uint64
	for i := 0; i < rounds; i++ {
		if sim.Stats().Committed+chunk > uint64(len(tr)) {
			if sim, err = benchkit.NewWarmSim(tr, predictor); err != nil {
				return SteadyResult{}, err
			}
		}
		beforeC := sim.Stats().Committed
		start := time.Now()
		if _, err := sim.Advance(chunk); err != nil {
			return SteadyResult{}, err
		}
		elapsed += time.Since(start)
		uops += sim.Stats().Committed - beforeC
	}

	if sim.Stats().Committed+allocProbe > uint64(len(tr)) {
		if sim, err = benchkit.NewWarmSim(tr, predictor); err != nil {
			return SteadyResult{}, err
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := sim.Advance(allocProbe); err != nil {
			panic(err)
		}
	})

	ns := float64(elapsed.Nanoseconds()) / float64(uops)
	return SteadyResult{
		Predictor:    predictor,
		NsPerUop:     ns,
		AllocsPerUop: allocs / float64(allocProbe),
		UopsPerSec:   1e9 / ns,
	}, nil
}

// measureFig4 runs the full Fig. 4 spec batch sequentially and in parallel.
// The declared spec list repeats per-kernel baselines across its two counter
// halves; duplicates are removed so uops_total counts real simulations (the
// session memo would dedupe them at run time anyway).
//
// The parallel pass raises GOMAXPROCS to the requested worker count for its
// duration (and restores it after): a pool of N goroutine workers under
// GOMAXPROCS=1 time-slices one CPU, and the old code reported that as a
// ~1.0x "parallel speedup" as if it had measured scaling. When even the
// raised limit yields effective parallelism of 1 — a single-CPU machine —
// the speedup is recorded as null rather than a fabricated ratio.
func measureFig4(warmup, measure uint64, workers int) (Fig4Result, error) {
	specs := harness.DedupSpecs(harness.Fig4Specs())
	perSim := warmup + measure

	start := time.Now()
	if _, err := harness.NewSession(warmup, measure).RunAll(specs, 1); err != nil {
		return Fig4Result{}, err
	}
	seq := time.Since(start).Seconds()

	prevProcs := runtime.GOMAXPROCS(0)
	if workers > prevProcs {
		runtime.GOMAXPROCS(workers)
	}
	effective := runtime.GOMAXPROCS(0)
	start = time.Now()
	_, err := harness.NewSession(warmup, measure).RunAll(specs, workers)
	par := time.Since(start).Seconds()
	if effective != prevProcs {
		runtime.GOMAXPROCS(prevProcs)
	}
	if err != nil {
		return Fig4Result{}, err
	}

	total := uint64(len(specs)) * perSim
	res := Fig4Result{
		Specs:            len(specs),
		Warmup:           warmup,
		Measure:          measure,
		UopsTotal:        total,
		WallSeconds1W:    seq,
		UopsPerSec1W:     float64(total) / seq,
		WallSecondsPar:   par,
		RequestedWorkers: workers,
		EffectiveProcs:   effective,
		NumCPU:           runtime.NumCPU(),
	}
	if parallelism := min(workers, effective, res.NumCPU); parallelism > 1 {
		sp := seq / par
		res.ParallelSpeedup = &sp
	} else {
		fmt.Fprintf(os.Stderr,
			"bench: warning: effective parallelism is 1 (workers=%d, GOMAXPROCS=%d, NumCPU=%d); parallel_speedup recorded as null\n",
			workers, effective, res.NumCPU)
	}
	return res, nil
}

// measureWarmStart runs the deduplicated fig4 batch through two store-backed
// sessions sharing one temporary store directory. The first (cold) pass
// simulates everything and persists write-behind; the second uses a fresh
// session — cold memo, same disk — so every lookup exercises the read-through
// path. A warm miss means an entry failed to round-trip.
func measureWarmStart(warmup, measure uint64, workers int) (WarmStartResult, error) {
	dir, err := os.MkdirTemp("", "bench-vpstore-")
	if err != nil {
		return WarmStartResult{}, err
	}
	defer os.RemoveAll(dir)
	specs := harness.DedupSpecs(harness.Fig4Specs())

	pass := func() (float64, harness.MemoStats, error) {
		st, err := store.Open(dir, harness.StoreVersion)
		if err != nil {
			return 0, harness.MemoStats{}, err
		}
		se := harness.NewSession(warmup, measure)
		se.UseStore(st)
		start := time.Now()
		if _, err := se.RunAll(specs, workers); err != nil {
			return 0, harness.MemoStats{}, err
		}
		return time.Since(start).Seconds(), se.MemoStats(), nil
	}

	cold, _, err := pass()
	if err != nil {
		return WarmStartResult{}, err
	}
	warm, m, err := pass()
	if err != nil {
		return WarmStartResult{}, err
	}
	return WarmStartResult{
		Specs:         len(specs),
		Workers:       workers,
		ColdSeconds:   cold,
		WarmSeconds:   warm,
		WarmSpeedup:   cold / warm,
		WarmStoreHits: m.StoreHits,
		WarmMisses:    m.Misses,
	}, nil
}

// ablationIDs are the sensitivity-sweep experiments whose declared spec
// sets form the ablation batch.
var ablationIDs = []string{"abl-fpc", "abl-hist", "abl-loads", "abl-width"}

// measureAblation runs the deduplicated union of the ablation sweeps'
// declared spec sets across the worker pool. Before PR 4 these sweeps
// simulated unmemoized on the render path; this number records the
// batch-scheduled replacement so the trajectory can hold it.
func measureAblation(warmup, measure uint64, workers int) (AblationResult, error) {
	var all []harness.Spec
	for _, id := range ablationIDs {
		e, ok := harness.ExperimentByID(id)
		if !ok || e.Specs == nil {
			return AblationResult{}, fmt.Errorf("experiment %q missing a declared spec set", id)
		}
		all = append(all, e.Specs()...)
	}
	specs := harness.DedupSpecs(all)
	start := time.Now()
	if _, err := harness.NewSession(warmup, measure).RunAll(specs, workers); err != nil {
		return AblationResult{}, err
	}
	wall := time.Since(start).Seconds()
	return AblationResult{
		Specs:       len(specs),
		Workers:     workers,
		WallSeconds: wall,
		SpecsPerSec: float64(len(specs)) / wall,
	}, nil
}

// corpusPredictors is the predictor list the corpus sweep crosses each
// generated program with — the same default sweep `experiments -corpus`
// runs. corpusProgramsPerFamily generated programs per family (seeds
// 0..n-1) keep the section proportionate to the others.
var corpusPredictors = []string{"lvp", "stride", "vtage"}

const corpusProgramsPerFamily = 2

// measureCorpus generates corpusProgramsPerFamily programs per generator
// family, registers each as a first-class workload of a fresh session, and
// runs the program × predictor sweep across the worker pool — the exact
// path a `genprog | experiments -corpus` pipeline takes, minus the disk
// round-trip. Each family gets its own session so per-family wall times
// don't share memo or trace state.
func measureCorpus(warmup, measure uint64, workers int) (CorpusResult, error) {
	res := CorpusResult{
		ProgramsPerFamily: corpusProgramsPerFamily,
		Predictors:        corpusPredictors,
		Workers:           workers,
	}
	var specsTotal int
	var wallTotal float64
	for _, fam := range repro.GeneratorFamilies() {
		se := harness.NewSession(warmup, measure)
		var specs []harness.Spec
		for s := uint64(0); s < corpusProgramsPerFamily; s++ {
			p, err := repro.GenerateProgram(fam, s)
			if err != nil {
				return CorpusResult{}, err
			}
			id, err := se.RegisterProgram(p)
			if err != nil {
				return CorpusResult{}, err
			}
			for _, pred := range corpusPredictors {
				specs = append(specs, harness.Spec{Program: id, Predictor: pred, Counters: harness.FPC})
			}
		}
		start := time.Now()
		if _, err := se.RunAll(specs, workers); err != nil {
			return CorpusResult{}, err
		}
		wall := time.Since(start).Seconds()
		res.Families = append(res.Families, CorpusFamilyResult{
			Family:      fam,
			Specs:       len(specs),
			WallSeconds: wall,
			SpecsPerSec: float64(len(specs)) / wall,
		})
		specsTotal += len(specs)
		wallTotal += wall
	}
	res.SpecsPerSec = float64(specsTotal) / wallTotal
	return res, nil
}

// serverClients is how many concurrent clients the server measurement runs;
// their batches fully overlap, which is the service's intended load shape.
const serverClients = 4

// measureServer starts an in-process service (the same handler cmd/vpserved
// serves), points serverClients typed clients at it over real HTTP, and has
// each submit the deduplicated fig4 batch concurrently. The reported rate
// is records served per wall-clock second — with overlapping batches this
// measures the memo-backed serving leverage, not raw simulation speed.
func measureServer(warmup, measure uint64, workers int) (ServerResult, error) {
	srv, err := service.New(service.Options{Warmup: warmup, Measure: measure, Workers: workers})
	if err != nil {
		return ServerResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServerResult{}, err
	}
	defer ln.Close()
	go http.Serve(ln, srv)

	var reqs []service.SpecRequest
	for _, sp := range harness.DedupSpecs(harness.Fig4Specs()) {
		reqs = append(reqs, service.RequestFor(sp))
	}

	ctx := context.Background()
	base := "http://" + ln.Addr().String()
	start := time.Now()
	errs := make([]error, serverClients)
	var wg sync.WaitGroup
	for n := 0; n < serverClients; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := client.New(base)
			st, err := c.SubmitBatch(ctx, reqs)
			if err != nil {
				errs[n] = err
				return
			}
			final, err := c.Wait(ctx, st.ID)
			if err == nil && final.State != service.StateDone {
				err = fmt.Errorf("job %s finished %s: %s", final.ID, final.State, final.Error)
			}
			errs[n] = err
		}(n)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return ServerResult{}, err
		}
	}
	served := serverClients * len(reqs)
	return ServerResult{
		Clients:     serverClients,
		Workers:     workers,
		UniqueSpecs: len(reqs),
		SpecsServed: served,
		WallSeconds: wall,
		SpecsPerSec: float64(served) / wall,
	}, nil
}

// runnerWarmCalls is how many warm dispatches each backend is timed over;
// the per-call quotient is stable well below this.
const runnerWarmCalls = 300

// measureRunnerOverhead times repeated warm Simulate calls of one spec
// through both Runner backends. The first call on each backend pays the
// simulation; every timed call is a memo hit, so the µs/call difference is
// pure dispatch overhead (the number BenchmarkRunnerRemoteOverhead tracks
// interactively).
func measureRunnerOverhead(warmup, measure uint64) (RunnerResult, error) {
	ctx := context.Background()
	spec := repro.Spec{Kernel: "art", Predictor: "vtage", Counters: repro.FPC}

	timeCalls := func(r repro.Runner) (float64, error) {
		if _, err := r.Simulate(ctx, spec); err != nil { // pay the simulation once
			return 0, err
		}
		start := time.Now()
		for i := 0; i < runnerWarmCalls; i++ {
			if _, err := r.Simulate(ctx, spec); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e6 / runnerWarmCalls, nil
	}

	local := repro.NewLocalRunner(repro.RunnerOptions{Warmup: warmup, Measure: measure})
	defer local.Close()
	localUs, err := timeCalls(local)
	if err != nil {
		return RunnerResult{}, err
	}

	srv, err := service.New(service.Options{Warmup: warmup, Measure: measure})
	if err != nil {
		return RunnerResult{}, err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return RunnerResult{}, err
	}
	defer ln.Close()
	go http.Serve(ln, srv)
	remote, err := repro.OpenRemoteRunner("http://"+ln.Addr().String(), repro.RunnerOptions{})
	if err != nil {
		return RunnerResult{}, err
	}
	defer remote.Close()
	remoteUs, err := timeCalls(remote)
	if err != nil {
		return RunnerResult{}, err
	}

	return RunnerResult{
		WarmCalls:         runnerWarmCalls,
		LocalUsPerCall:    localUs,
		RemoteUsPerCall:   remoteUs,
		OverheadUsPerCall: remoteUs - localUs,
		OverheadRatio:     remoteUs / localUs,
	}, nil
}

// fleetWarmCalls sizes the fleet dispatch comparison; fleetWarmFrames full
// frames give the batched side a similar sample.
const (
	fleetWarmCalls  = 300
	fleetWarmFrames = 20
)

// startBenchShards stands up n in-process service shards on real loopback
// listeners (the same handler vpserved serves) and returns their base URLs
// plus a closer.
func startBenchShards(n int, warmup, measure uint64, workers int) ([]string, func(), error) {
	var urls []string
	var closers []func()
	closeAll := func() {
		for _, c := range closers {
			c()
		}
	}
	for i := 0; i < n; i++ {
		srv, err := service.New(service.Options{
			Warmup: warmup, Measure: measure, Workers: workers,
			ShardID: fmt.Sprintf("bench-%d", i),
		})
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Close()
			closeAll()
			return nil, nil, err
		}
		go http.Serve(ln, srv)
		closers = append(closers, func() { ln.Close(); srv.Close() })
		urls = append(urls, "http://"+ln.Addr().String())
	}
	return urls, closeAll, nil
}

// measureFleet measures the fleet tier. Throughput runs the deduplicated
// fig4 batch through a ShardedRunner over 1, 2 and 3 cold shards — the
// end-to-end fleet path: consistent-hash scatter, per-shard simulation,
// ordered gather. The dispatch comparison then times one warm shard both
// ways: per-call /v1/simulate round trips versus batch-sync frames, the
// ratio the batched wire path exists to win (DESIGN.md §12.3).
func measureFleet(warmup, measure uint64, workers int) (FleetResult, error) {
	ctx := context.Background()
	specs := harness.DedupSpecs(harness.Fig4Specs())

	var res FleetResult
	for _, shards := range []int{1, 2, 3} {
		urls, closeAll, err := startBenchShards(shards, warmup, measure, workers)
		if err != nil {
			return res, err
		}
		runner, err := repro.OpenShardedRunner(repro.RunnerOptions{Shards: urls})
		if err != nil {
			closeAll()
			return res, err
		}
		n := 0
		start := time.Now()
		err = runner.Batch(ctx, specs, func(repro.Record) error { n++; return nil })
		wall := time.Since(start).Seconds()
		runner.Close()
		closeAll()
		if err != nil {
			return res, err
		}
		res.Throughput = append(res.Throughput, FleetThroughputPoint{
			Shards:      shards,
			Specs:       n,
			WallSeconds: wall,
			SpecsPerSec: float64(n) / wall,
		})
	}

	urls, closeAll, err := startBenchShards(1, warmup, measure, workers)
	if err != nil {
		return res, err
	}
	defer closeAll()
	c := client.New(urls[0])
	defer c.Close()
	reqs := make([]service.SpecRequest, len(specs))
	for i, sp := range specs {
		reqs[i] = service.RequestFor(sp)
	}
	if _, err := c.SimulateBatchSync(ctx, reqs); err != nil { // pay the simulations once
		return res, err
	}
	start := time.Now()
	for i := 0; i < fleetWarmCalls; i++ {
		if _, err := c.Simulate(ctx, reqs[i%len(reqs)]); err != nil {
			return res, err
		}
	}
	res.PerCallUs = time.Since(start).Seconds() * 1e6 / fleetWarmCalls
	start = time.Now()
	for i := 0; i < fleetWarmFrames; i++ {
		if _, err := c.SimulateBatchSync(ctx, reqs); err != nil {
			return res, err
		}
	}
	res.BatchedUsPerSpec = time.Since(start).Seconds() * 1e6 / float64(fleetWarmFrames*len(reqs))
	res.WarmCalls = fleetWarmCalls
	res.BatchedSpeedup = res.PerCallUs / res.BatchedUsPerSpec
	return res, nil
}

// speedups compares the headline numbers of two records. Steady comparisons
// match by predictor name; fig4 compares effective single-thread µops/s.
func speedups(cur, prev *Record) map[string]float64 {
	out := map[string]float64{}
	prevSteady := map[string]SteadyResult{}
	for _, s := range prev.Steady {
		prevSteady[s.Predictor] = s
	}
	for _, s := range cur.Steady {
		if p, ok := prevSteady[s.Predictor]; ok && s.NsPerUop > 0 {
			out["steady_"+s.Predictor] = p.NsPerUop / s.NsPerUop
		}
	}
	if cur.Fig4 != nil && prev.Fig4 != nil && prev.Fig4.UopsPerSec1W > 0 {
		out["fig4_single_thread"] = cur.Fig4.UopsPerSec1W / prev.Fig4.UopsPerSec1W
	}
	if cur.Server != nil && prev.Server != nil && prev.Server.SpecsPerSec > 0 {
		out["server_specs_per_sec"] = cur.Server.SpecsPerSec / prev.Server.SpecsPerSec
	}
	if cur.Ablation != nil && prev.Ablation != nil && prev.Ablation.SpecsPerSec > 0 {
		out["ablation_specs_per_sec"] = cur.Ablation.SpecsPerSec / prev.Ablation.SpecsPerSec
	}
	if cur.Corpus != nil && prev.Corpus != nil && prev.Corpus.SpecsPerSec > 0 {
		out["corpus_specs_per_sec"] = cur.Corpus.SpecsPerSec / prev.Corpus.SpecsPerSec
	}
	if cur.WarmStart != nil && prev.WarmStart != nil && prev.WarmStart.WarmSpeedup > 0 {
		out["warm_start_speedup"] = cur.WarmStart.WarmSpeedup / prev.WarmStart.WarmSpeedup
	}
	if cur.Runner != nil && prev.Runner != nil && cur.Runner.RemoteUsPerCall > 0 {
		// >1 means remote dispatch got cheaper since the prior record.
		out["runner_remote_dispatch"] = prev.Runner.RemoteUsPerCall / cur.Runner.RemoteUsPerCall
	}
	if cur.Fleet != nil && cur.Fleet.BatchedUsPerSpec > 0 {
		if prev.Fleet != nil {
			out["fleet_batched_dispatch"] = prev.Fleet.BatchedUsPerSpec / cur.Fleet.BatchedUsPerSpec
		} else if prev.Runner != nil {
			// First record with a fleet section: hold the batched path
			// against the prior record's warm per-call remote dispatch —
			// the number the batched framing exists to beat.
			out["fleet_batched_vs_prior_per_call"] = prev.Runner.RemoteUsPerCall / cur.Fleet.BatchedUsPerSpec
		}
	}
	return out
}

func loadRecord(path string) (*Record, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
