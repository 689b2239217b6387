package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/harness"
)

// callers is the number of closed-loop goroutines or connections a workload
// drives load from; it never exceeds the machine's CPUs.
func callers() int { return min(2, runtime.NumCPU()) }

// openLocal is a local workload's set-up: generate the seed's programs, open
// a fresh LocalRunner (with a store in dir when dir is non-empty) and
// register the programs on it.
func (rc *runCtx) openLocal(ctx context.Context, dir string) (*workloadSet, *repro.LocalRunner, error) {
	ws, err := newWorkloadSet(rc.seed)
	if err != nil {
		return nil, nil, err
	}
	r, err := repro.OpenLocalRunner(repro.RunnerOptions{Warmup: warmup, Measure: measure, Workers: runtime.NumCPU(), StoreDir: dir})
	if err != nil {
		return nil, nil, err
	}
	for _, p := range ws.programs {
		id, err := r.RegisterProgram(ctx, p)
		if err != nil {
			return nil, nil, err
		}
		if id != harness.ProgramID(p) {
			return nil, nil, fmt.Errorf("RegisterProgram returned %q, want %q", id, harness.ProgramID(p))
		}
	}
	return ws, r, nil
}

// scratchDir returns a fresh, empty directory under the run's output.
func (rc *runCtx) scratchDir(name string) (string, error) {
	dir := filepath.Join(rc.out, "scratch", name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

// coldPass is one pass of cold-sweep over a fresh runner and store.
type coldPass struct {
	order []int
	recs  []harness.Record
	errs  []error
	lat   []time.Duration
	wall  time.Duration
	memo  repro.MemoStats
}

// runCold is the cold-sweep workload: closed-loop callers issue
// LocalRunner.Simulate over a seeded shuffle of the spec set (baselines
// first), pass after pass, each pass on a fresh runner with a fresh empty
// store. Afterwards the
// spec set is simulated again by direct emu/pipeline calls, which is the
// reference every record is compared with.
func runCold(ctx context.Context, rc *runCtx) error {
	// Set-up costs milliseconds, so it is timed setupSamples times in the
	// fresh process, after setupWarmups untimed ones and before the passes
	// leave their heap behind.
	var setups []time.Duration
	for i := 0; len(setups) < setupSamples; i++ {
		dir, err := rc.scratchDir("cold-setup")
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := rc.openLocal(ctx, dir); err != nil {
			return err
		}
		if i >= setupWarmups {
			setups = append(setups, time.Since(t0))
		}
	}
	var passes []*coldPass
	timed := rc.host.mark()
	for p := 0; p < repeats(rc, passes, func(p *coldPass) time.Duration { return p.wall }); p++ {
		dir, err := rc.scratchDir("cold-store")
		if err != nil {
			return err
		}
		runtime.GC() // start every pass from the same heap
		ws, r, err := rc.openLocal(ctx, dir)
		if err != nil {
			return err
		}
		rc.ws = ws
		pass := &coldPass{order: baselinesFirst(ws.specs, stream(rc.seed, streamColdOrder, uint64(p)))}
		coldSimulate(ctx, rc, r, pass)
		passes = append(passes, pass)
		if rc.traced && p == 0 {
			if err := rc.probeLocal(ctx, r, dir); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	runs, traces, err := direct(ctx, rc.ws, runtime.NumCPU(), rc.rec)
	if err != nil {
		return err
	}
	ref, err := referenceRecords(runs)
	if err != nil {
		return err
	}
	rc.info["reference_s"] = time.Since(t0).Seconds()
	rc.setReference(ref, runs)

	chk := &checker{ref: ref}
	var windows []window
	var memo repro.MemoStats
	var passS []float64
	for _, p := range passes {
		w := window{lat: millis(p.lat), wall: p.wall}
		for i, err := range p.errs {
			rc.attempted++
			switch {
			case err != nil:
				rc.failed++
				rc.fail("%s: %v", rc.ws.specs[p.order[i]].Identity(), err)
			case !chk.ok(rc.ws.specs[p.order[i]], p.recs[i]):
				rc.failed++
			default:
				w.recs++
				w.uops += recordUops(p.recs[i])
			}
		}
		windows = append(windows, w)
		memo = addMemo(memo, p.memo)
		passS = append(passS, p.wall.Seconds())
	}
	if chk.firstBad != "" {
		rc.fail("first mismatch: %s", chk.firstBad)
	}
	rc.endToEnd(setups, windows, rc.host.slowdown(timed))
	rc.info["pass_s"] = passS

	if rc.traced {
		rc.overheadRatio(runs)
		rc.simLayers(runs, traces)
		all := make([]int, len(runs))
		for i := range all {
			all[i] = i
		}
		var wls []string
		for _, t := range traces {
			wls = append(wls, t.workload)
		}
		rc.busy(runs, traces, wls, all, len(passes))
		rc.memoLayers(memo)
	}
	return nil
}

// repeats is how many passes (or rounds) a run makes, decided once the
// first has been timed: as many as fill --seconds, rounded to the nearest
// whole number, so that a small change of speed rarely changes the count.
// A run whose later passes are much slower than its first stops once it has
// measured a quarter more than --seconds.
func repeats[T any](rc *runCtx, done []T, wall func(T) time.Duration) int {
	if len(done) == 0 {
		return 1
	}
	n := int(math.Round(rc.seconds.Seconds() / wall(done[0]).Seconds()))
	var measured time.Duration
	for _, d := range done {
		measured += wall(d)
	}
	if measured >= rc.seconds*5/4 {
		n = len(done)
	}
	return max(n, 1)
}

// coldSimulate runs one pass: callers goroutines pull the next spec of the
// pass's order and time one Simulate each.
func coldSimulate(ctx context.Context, rc *runCtx, r *repro.LocalRunner, pass *coldPass) {
	n := len(pass.order)
	pass.recs = make([]harness.Record, n)
	pass.errs = make([]error, n)
	pass.lat = make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	rec := rc.rec
	m := rc.host.mark()
	t0 := time.Now()
	for c := 0; c < callers(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pace := rc.host.pacer()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sp := rc.ws.specs[pass.order[i]]
				start := time.Now()
				pass.recs[i], pass.errs[i] = r.Simulate(ctx, sp)
				end := time.Now()
				pass.lat[i] = end.Sub(start)
				rec.add(rec.newID(), 0, rec.newRequest(), "repro.LocalRunner.Simulate", start, end)
				pace.tick()
			}
		}()
	}
	wg.Wait()
	pass.wall = time.Since(t0) - rc.host.spentSince(m)/time.Duration(callers())
	pass.memo = r.MemoStats()
}
