package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/pipeline"
	"repro/internal/store"
)

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// recordUops is the simulated window a record stands for: the warmup plus
// the µops it measured.
func recordUops(r harness.Record) float64 { return float64(warmup + r.Committed) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func addMemo(a, b repro.MemoStats) repro.MemoStats {
	a.Hits += b.Hits
	a.StoreHits += b.StoreHits
	a.Misses += b.Misses
	a.Store.Hits += b.Store.Hits
	a.Store.Misses += b.Store.Misses
	a.Store.LoadErrors += b.Store.LoadErrors
	a.Store.Writes += b.Store.Writes
	a.Store.WriteErrors += b.Store.WriteErrors
	return a
}

// digest is a hash of the expected records in spec order.
func digest(specs []harness.Spec, ref map[harness.Spec][]byte) string {
	h := sha256.New()
	for _, sp := range specs {
		h.Write(ref[sp])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setReference keeps what the cross-run guard compares and reports the
// exact simulated counters of the spec set.
func (rc *runCtx) setReference(ref map[harness.Spec][]byte, runs []directRun) {
	rc.info["reference_digest"] = digest(rc.ws.specs, ref)
	stats := make([]*pipeline.Stats, len(runs))
	for i := range runs {
		stats[i] = &runs[i].stats
	}
	c := counters(stats)
	rc.info["counters"] = c
	if rc.traced {
		for k, v := range c {
			rc.set(k, v)
		}
	}
}

// window is one stretch of a timed phase: a cold pass, a fleet round, or
// warmWindow of re-renders. Rates and latency percentiles are taken per
// window and reported as the median over the windows, so that host noise
// covering part of a run moves its result less.
type window struct {
	lat  []float64 // request latencies, ms
	recs int       // records delivered and found correct
	uops float64   // the window µops of those records
	wall time.Duration
}

// endToEnd sets the metrics every workload reports. Rates are multiplied,
// and latencies divided, by the host's slowdown over the timed phase
// (hostspeed.go); the unscaled metrics go to the result file as
// raw_<name>. Set-up times are not scaled: they are mostly file-system
// calls and allocation, which the calibration loop does not follow (scaling
// them widened their spread).
func (rc *runCtx) endToEnd(setups []time.Duration, windows []window, slow float64) {
	var specs, uops, p50, tails, pcts []float64
	var beyond []int
	var requests int
	var timed time.Duration
	for _, w := range windows {
		specs = append(specs, float64(w.recs)/w.wall.Seconds())
		uops = append(uops, w.uops/w.wall.Seconds())
		p50 = append(p50, median(w.lat))
		pct, v, b := tail(w.lat)
		tails = append(tails, v)
		pcts = append(pcts, pct)
		beyond = append(beyond, b)
		requests += len(w.lat)
		timed += w.wall
	}
	rc.set("setup_s", median(seconds(setups)))
	rc.set("specs_per_s", median(specs)*slow)
	rc.set("sim_uops_per_s", median(uops)*slow)
	rc.set("latency_p50_ms", median(p50)/slow)
	rc.set("latency_tail_ms", median(tails)/slow)
	rc.info["host_slowdown"] = slow
	rc.info["raw_specs_per_s"] = median(specs)
	rc.info["raw_sim_uops_per_s"] = median(uops)
	rc.info["raw_latency_p50_ms"] = median(p50)
	rc.info["raw_latency_tail_ms"] = median(tails)
	rc.info["window_raw_specs_per_s"] = specs
	rc.info["window_raw_latency_p50_ms"] = p50
	rc.info["setup_ms"] = millis(setups)
	rc.info["latency_tail_percentile"] = pcts
	rc.info["latency_tail_samples_beyond"] = beyond
	rc.info["windows"] = len(windows)
	rc.info["requests"] = requests
	rc.info["setup_samples"] = len(setups)
	rc.info["timed_s"] = timed.Seconds()
	if rc.attempted > 0 {
		rc.info["failed_ratio"] = float64(rc.failed) / float64(rc.attempted)
	}
}

// rate accumulates work and the time it took.
type rate struct {
	n int
	d time.Duration
}

func (r *rate) add(n int, d time.Duration) { r.n += n; r.d += d }

// simLayers reports the emulator, timing-model and predictor speeds measured
// by the direct runs: each is the time of calls into emu.Trace,
// pipeline.New, Sim.Run and Sim.Advance, divided by the work they did.
func (rc *runCtx) simLayers(runs []directRun, traces []traceRun) {
	var tDur time.Duration
	var tUops int
	for _, t := range traces {
		tDur += t.dur
		tUops += t.uops
	}
	rc.set("emu.trace_ns_per_uop", float64(tDur.Nanoseconds())/float64(tUops))

	var news []time.Duration
	var warmT, measT, simT time.Duration
	var warmOps, measOps, cycles uint64
	byPred := map[string]*rate{}
	for _, r := range runs {
		news = append(news, r.newT)
		warmT += r.warmT
		measT += r.measT
		warmOps += r.warmOps
		measOps += r.measOps
		simT += r.warmT + r.measT
		cycles += uint64(r.stats.Cycles)
		if byPred[r.spec.Predictor] == nil {
			byPred[r.spec.Predictor] = &rate{}
		}
		byPred[r.spec.Predictor].add(int(r.warmOps+r.measOps), r.warmT+r.measT)
	}
	rc.set("pipeline.new_us", median(microseconds(news)))
	rc.set("pipeline.warmup_ns_per_uop", float64(warmT.Nanoseconds())/float64(warmOps))
	rc.set("pipeline.measure_ns_per_uop", float64(measT.Nanoseconds())/float64(measOps))
	rc.set("pipeline.ns_per_cycle", float64(simT.Nanoseconds())/float64(cycles))
	nsPerUop := func(p string) float64 {
		r := byPred[p]
		if r == nil || r.n == 0 {
			return 0
		}
		return float64(r.d.Nanoseconds()) / float64(r.n)
	}
	none := nsPerUop("none")
	rc.set("pipeline.ns_per_uop.none", none)
	for _, p := range predictors {
		rc.set("pipeline.ns_per_uop."+p, nsPerUop(p))
		rc.set("core."+p+".extra_ns_per_uop", nsPerUop(p)-none)
	}
}

// overheadRatio is the spans' own cost: the time of the direct runs that
// recorded no spans over the time of their traced twins (see
// directWorkload). 1 means the spans cost nothing. The request-level spans
// of the timed phase are one per request, each far cheaper than the request.
func (rc *runCtx) overheadRatio(runs []directRun) {
	var plain, traced time.Duration
	for _, r := range runs {
		plain += r.plainT
		traced += r.callT
	}
	if plain > 0 && traced > 0 {
		rc.set("trace_overhead_ratio", plain.Seconds()/traced.Seconds())
	}
}

// busy estimates the host time the workload's timed phase spent in the
// emulator and the timing model, from the direct runs' call times: times
// rounds, each workload in tracedWl traced once and each spec index in
// simulated simulated once.
func (rc *runCtx) busy(runs []directRun, traces []traceRun, tracedWl []string, simulated []int, times int) {
	traceTime := map[string]time.Duration{}
	for _, t := range traces {
		traceTime[t.workload] = t.dur
	}
	var emuT, simT time.Duration
	for _, w := range tracedWl {
		emuT += traceTime[w]
	}
	for _, i := range simulated {
		simT += runs[i].newT + runs[i].warmT + runs[i].measT
	}
	rc.set("emu.traces", float64(len(tracedWl)*times))
	rc.set("emu.busy_s", emuT.Seconds()*float64(times))
	rc.set("pipeline.busy_s", simT.Seconds()*float64(times))
}

// memoLayers reports the harness memo and the store as the workload's
// runners saw them.
func (rc *runCtx) memoLayers(m repro.MemoStats) {
	rc.set("harness.memo_hits", float64(m.Hits))
	rc.set("harness.memo_misses", float64(m.Misses))
	rc.set("harness.store_hits", float64(m.StoreHits))
	rc.set("store.gets", float64(m.Store.Hits+m.Store.Misses+m.Store.LoadErrors))
	rc.set("store.puts", float64(m.Store.Writes))
	rc.set("store.load_errors", float64(m.Store.LoadErrors))
}

// selfTime is the harness's own cost per record on warm-rerender: the CPU
// time of the timed phase not explained by the store reads inside it. On
// the simulating workloads this share is far below the noise of subtracting
// the emulator and timing-model estimates, so they report 0.
func (rc *runCtx) selfTime(cpu time.Duration, recs int) {
	store := rc.metrics["store.gets"] * rc.metrics["store.get_us_p50"]
	if recs > 0 {
		rc.set("harness.self_us_per_spec", (us(cpu)-store)/float64(recs))
	}
}

// probeLocal times the layers under a LocalRunner whose session holds every
// spec: the facade's warm Simulate, the harness's record flattening, and
// store.Open/Put/Get on a scratch store with the same payloads. dir is the
// runner's store, whose entries give the entry size.
func (rc *runCtx) probeLocal(ctx context.Context, r *repro.LocalRunner, dir string) error {
	specs := rc.ws.specs
	var calls []time.Duration
	for rep := 0; rep < 5; rep++ {
		for _, sp := range specs {
			t0 := time.Now()
			if _, err := r.Simulate(ctx, sp); err != nil {
				return err
			}
			calls = append(calls, time.Since(t0))
		}
	}
	rc.set("repro.local_warm_us_per_call", median(microseconds(calls)))
	all := make([]int, len(specs))
	for i := range all {
		all[i] = i
	}
	rc.set("harness.record_us", recordProbe(ctx, r.Session(), all, specs))

	scratch, err := rc.scratchDir("store-probe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var opens, puts, gets []time.Duration
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, err := store.Open(filepath.Join(scratch, "open", string(rune('a'+i))), harness.StoreVersion); err != nil {
			return err
		}
		opens = append(opens, time.Since(t0))
	}
	st, err := store.Open(filepath.Join(scratch, "entries"), harness.StoreVersion)
	if err != nil {
		return err
	}
	se := r.Session()
	for _, sp := range specs {
		res, err := se.RunCtx(ctx, sp)
		if err != nil {
			return err
		}
		id := sp.Identity()
		key := store.KeyOf("vpbench", id)
		t0 := time.Now()
		if err := st.Put(key, id, res.Stats); err != nil {
			return err
		}
		puts = append(puts, time.Since(t0))
		var back pipeline.Stats
		t0 = time.Now()
		ok := st.Get(key, id, &back)
		gets = append(gets, time.Since(t0))
		if !ok || back != res.Stats {
			rc.fail("store probe: %s did not read back", id)
		}
	}
	rc.set("store.open_us", median(microseconds(opens)))
	rc.set("store.put_us_p50", median(microseconds(puts)))
	rc.set("store.get_us_p50", median(microseconds(gets)))

	var size, n float64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				size += float64(fi.Size())
				n++
			}
		}
		return nil
	})
	if n > 0 {
		rc.set("store.entry_bytes", size/n)
	}
	return nil
}

// recordProbe is the median time of Session.Record over the given specs of
// a session that holds them and their baselines.
func recordProbe(ctx context.Context, se *harness.Session, idx []int, specs []harness.Spec) float64 {
	var ds []time.Duration
	for rep := 0; rep < 5; rep++ {
		for _, i := range idx {
			res, err := se.RunCtx(ctx, specs[i])
			if err != nil {
				continue
			}
			t0 := time.Now()
			se.Record(res)
			ds = append(ds, time.Since(t0))
		}
	}
	return median(microseconds(ds))
}
