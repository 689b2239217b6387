package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/harness"
)

// warmWindow is how many re-renders of each caller make one window of
// rates and percentiles: with two callers 40 re-renders, so the tail is
// every window's p75 (10 samples beyond it), and a 30-s run reports medians
// over about 60 windows. A count, not a time, keeps the tail percentile the
// same however fast the host runs. Re-renders barely vary apart from host
// interference: with windows of 120 the tail was their p90, which followed
// the bursts of CPU time the host gave other guests (p90 over p50 rose from
// 1.3 to 2.0 as their share rose from 1% to 22%) and spread by 0.30 across
// ten seeds, past its bound.
const warmWindow = 20

// runWarm is the warm-rerender workload. Set-up populates a store by one
// cold Batch over the spec set; its records are the reference. In the timed
// phase closed-loop callers re-render the spec set again and again, each
// re-render one LocalRunner.Batch in a seeded order on a fresh runner over
// that store, so every spec is a store read, a memo promotion and a record
// flattening, with no simulation at all.
func runWarm(ctx context.Context, rc *runCtx) error {
	dir, err := rc.scratchDir("warm-store")
	if err != nil {
		return err
	}
	t0 := time.Now()
	ws, r, err := rc.openLocal(ctx, dir)
	if err != nil {
		return err
	}
	rc.ws = ws
	refRecs := make([]harness.Record, 0, len(ws.specs))
	if err := r.Batch(ctx, ws.specs, func(rec harness.Record) error {
		refRecs = append(refRecs, rec)
		return nil
	}); err != nil {
		return err
	}
	setup := time.Since(t0)
	ref := make(map[harness.Spec][]byte, len(ws.specs))
	for i, sp := range ws.specs {
		ref[sp] = canonical(refRecs[i])
	}
	rc.info["reference_digest"] = digest(ws.specs, ref)

	if rc.traced {
		// The layer probes run on a runner of their own before the timed
		// phase, so that no re-render runs alongside them.
		r, err := rc.openRunner(ctx, ws, dir)
		if err != nil {
			return err
		}
		if err := r.Batch(ctx, ws.specs, func(harness.Record) error { return nil }); err != nil {
			return err
		}
		if err := rc.probeLocal(ctx, r, dir); err != nil {
			return err
		}
	}

	chk := &checker{ref: ref}
	n := callers()
	out := make([]warmCaller, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	timed := rc.host.mark()
	cpu0 := cpuTime()
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c].run(ctx, rc, ws, dir, chk, &next)
		}()
	}
	wg.Wait()
	cpu := cpuTime() - cpu0 - rc.host.spentSince(timed)

	// Window k of the run is window k of every caller: their records add
	// up, their latencies pool, and its time is the callers' mean. A last
	// window that some caller did not fill is left out.
	nw := len(out[0].windows)
	for _, o := range out {
		full := len(o.windows)
		if full > 0 && len(o.windows[full-1].lat) < warmWindow {
			full--
		}
		nw = min(nw, full)
	}
	windows := make([]window, nw)
	for k := range windows {
		w := &windows[k]
		for _, o := range out {
			ow := o.windows[k]
			w.lat = append(w.lat, ow.lat...)
			w.recs += ow.recs
			w.uops += ow.uops
			w.wall += ow.wall / time.Duration(n)
		}
	}
	var recs, rerenders int
	var memo repro.MemoStats
	for _, o := range out {
		if o.err != nil {
			return o.err
		}
		rc.attempted += o.attempted
		rc.failed += o.failed
		rc.problems = append(rc.problems, o.problems...)
		recs += o.recs
		rerenders += o.attempted
		memo = addMemo(memo, o.memo)
	}
	if chk.firstBad != "" {
		rc.fail("first mismatch: %s", chk.firstBad)
	}
	rc.endToEnd([]time.Duration{setup}, windows, rc.host.slowdown(timed))
	rc.info["rerenders"] = rerenders

	if rc.traced {
		// The simulated counters of the records, and a second reference:
		// the populated records must equal direct emu/pipeline runs.
		runs, _, err := direct(ctx, ws, runtime.NumCPU(), rc.rec)
		if err != nil {
			return err
		}
		direct, err := referenceRecords(runs)
		if err != nil {
			return err
		}
		if d := digest(ws.specs, direct); d != rc.info["reference_digest"] {
			rc.fail("populated records differ from direct emu/pipeline runs")
		}
		rc.setReference(direct, runs)
		rc.overheadRatio(runs)
		rc.memoLayers(memo)
		rc.selfTime(cpu, recs)
	}
	return nil
}

// warmCaller is one closed-loop caller of warm-rerender and what it saw.
type warmCaller struct {
	windows           []window
	attempted, failed int
	recs              int
	memo              repro.MemoStats
	problems          []string
	err               error // a runner that failed to open
}

// run re-renders the spec set, each time in the next pass's seeded order on
// a fresh runner, until the caller's requests have taken --seconds. Checking
// is outside the clock.
func (o *warmCaller) run(ctx context.Context, rc *runCtx, ws *workloadSet, dir string, chk *checker, next *atomic.Int64) {
	rec := rc.rec
	pace := rc.host.pacer()
	var wall time.Duration
	for wall < rc.seconds {
		pass := next.Add(1) - 1
		order := shuffled(len(ws.specs), stream(rc.seed, streamWarmOrder, uint64(pass)))
		specs := make([]harness.Spec, len(order))
		for i, j := range order {
			specs[i] = ws.specs[j]
		}
		got := make([]harness.Record, 0, len(specs))
		if len(o.windows) == 0 || len(o.windows[len(o.windows)-1].lat) == warmWindow {
			o.windows = append(o.windows, window{})
		}
		w := &o.windows[len(o.windows)-1]

		req := rec.newRequest()
		start := time.Now()
		r, err := rc.openRunner(ctx, ws, dir)
		if err != nil {
			o.err = err
			return
		}
		bStart := time.Now()
		err = r.Batch(ctx, specs, func(rec harness.Record) error {
			got = append(got, rec)
			return nil
		})
		end := time.Now()
		rec.add(rec.newID(), 0, req, "repro.OpenLocalRunner", start, bStart)
		rec.add(rec.newID(), 0, req, "repro.LocalRunner.Batch", bStart, end)
		wall += end.Sub(start)
		w.wall += end.Sub(start)
		w.lat = append(w.lat, float64(end.Sub(bStart).Nanoseconds())/1e6)
		o.memo = addMemo(o.memo, r.MemoStats())
		pace.tick()

		o.attempted++
		if err != nil {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("re-render %d: %v", pass, err))
			continue
		}
		if !chk.allOK(specs, got) {
			o.failed++
			continue
		}
		o.recs += len(got)
		w.recs += len(got)
		for _, g := range got {
			w.uops += recordUops(g)
		}
	}
}

// openRunner opens a fresh LocalRunner over the populated store, with one
// worker: each caller's re-render then keeps one CPU busy instead of
// handing specs between two, and the callers together keep both busy.
// Hand-offs between CPUs wait on the host to wake an idle virtual CPU: while
// other guests took 14-18% of the host's CPU time, one caller with two
// workers re-rendered at half its quiet rate while the calibration loop
// (hostspeed.go) slowed by only a sixth.
func (rc *runCtx) openRunner(ctx context.Context, ws *workloadSet, dir string) (*repro.LocalRunner, error) {
	r, err := repro.OpenLocalRunner(repro.RunnerOptions{Warmup: warmup, Measure: measure, Workers: 1, StoreDir: dir})
	if err != nil {
		return nil, err
	}
	for _, p := range ws.programs {
		if _, err := r.RegisterProgram(ctx, p); err != nil {
			return nil, err
		}
	}
	return r, nil
}
