package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/harness"
	"repro/internal/isa"
	"repro/internal/pipeline"
)

// directRun is one spec simulated by direct calls into the emulator and the
// timing model, bypassing the harness, the store and the facade. Its stats
// are the reference of cold-sweep and fleet-serve and the source of the
// exact counters; its timings feed the emu and pipeline layer metrics.
type directRun struct {
	spec    harness.Spec
	stats   pipeline.Stats
	newT    time.Duration // pipeline.New
	warmT   time.Duration // Sim.Run over the warmup window
	measT   time.Duration // Sim.Advance over the measured window
	warmOps uint64        // µops committed by the warmup call
	measOps uint64        // µops committed by the measure call
	callT   time.Duration // the whole directSpec call
	plainT  time.Duration // the same call recording no spans; traced runs only
}

// traceRun is one emu.Trace call.
type traceRun struct {
	workload string
	uops     int
	dur      time.Duration
}

// direct simulates every spec of ws with nproc goroutines, one workload
// (one emu.Trace) at a time per goroutine. Spans go to rec when it is
// non-nil. The result is in spec order.
func direct(ctx context.Context, ws *workloadSet, workers int, rec *spanRecorder) ([]directRun, []traceRun, error) {
	byWorkload := map[string][]int{}
	var order []string
	for i, sp := range ws.specs {
		if _, ok := byWorkload[sp.Kernel]; !ok {
			order = append(order, sp.Kernel)
		}
		byWorkload[sp.Kernel] = append(byWorkload[sp.Kernel], i)
	}
	runs := make([]directRun, len(ws.specs))
	traces := make([]traceRun, len(order))
	errs := make([]error, len(order))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wi := range next {
				errs[wi] = directWorkload(ws, order[wi], byWorkload[order[wi]], runs, &traces[wi], rec)
			}
		}()
	}
	for wi := range order {
		if ctx.Err() != nil {
			break
		}
		next <- wi
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return runs, traces, nil
}

// directWorkload traces one workload and simulates its specs on the trace.
// With a recorder every spec is simulated twice, once recording its spans
// and once not, in alternating order, so that the spans' own cost can be
// read off the pair; the two runs must agree exactly.
func directWorkload(ws *workloadSet, workload string, idxs []int, runs []directRun, tr *traceRun, rec *spanRecorder) error {
	p, err := ws.program(workload)
	if err != nil {
		return err
	}
	req, root := rec.newRequest(), rec.newID()
	t0 := time.Now()
	trace := emu.Trace(p, simWindow)
	end := time.Now()
	*tr = traceRun{workload: workload, uops: len(trace), dur: end.Sub(t0)}
	rec.add(rec.newID(), root, req, "emu.Trace", t0, end)
	for k, i := range idxs {
		sp := ws.specs[i]
		if rec == nil {
			r, err := directSpec(sp, trace, nil, root, req)
			if err != nil {
				return err
			}
			runs[i] = r
			continue
		}
		var traced, plain directRun
		if k%2 == 0 {
			plain, err = directSpec(sp, trace, nil, root, req)
			if err == nil {
				traced, err = directSpec(sp, trace, rec, root, req)
			}
		} else {
			traced, err = directSpec(sp, trace, rec, root, req)
			if err == nil {
				plain, err = directSpec(sp, trace, nil, root, req)
			}
		}
		if err != nil {
			return err
		}
		if traced.stats != plain.stats {
			return fmt.Errorf("%s: two direct runs of one spec disagree", sp.Identity())
		}
		traced.plainT = plain.callT
		runs[i] = traced
	}
	rec.add(root, 0, req, "direct.workload", t0, time.Now())
	return nil
}

// directSpec is emu.Trace → pipeline.New → Sim.Run → Sim.Advance → Sim.Stats
// for one spec, the same sequence the harness runs, called from outside.
func directSpec(sp harness.Spec, trace []isa.DynInst, rec *spanRecorder, parent, req uint64) (directRun, error) {
	call := time.Now()
	r := directRun{spec: sp}
	h := &ghist.History{}
	pred, err := harness.NewPredictor(sp.Predictor, sp.Counters.Vector(sp.Recovery), h)
	if err != nil {
		return r, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.Recovery = sp.Recovery
	total := uint64(min(simWindow, len(trace)))

	t0 := time.Now()
	sim := pipeline.New(cfg, trace, pred, h)
	t1 := time.Now()
	r.newT = t1.Sub(t0)

	st, err := sim.Run(warmup, 0)
	t2 := time.Now()
	r.warmT = t2.Sub(t1)
	if err != nil {
		return r, fmt.Errorf("%s: %w", sp.Identity(), err)
	}
	r.warmOps = st.Committed

	if st.Committed < total {
		st, err = sim.Advance(total - st.Committed)
	}
	t3 := time.Now()
	r.measT = t3.Sub(t2)
	if err != nil {
		return r, fmt.Errorf("%s: %w", sp.Identity(), err)
	}
	r.measOps = st.Committed - r.warmOps

	r.stats = *sim.Stats()
	t4 := time.Now()
	// Spans are recorded last, so the phase times above exclude their cost
	// and the call time includes it.
	rec.add(rec.newID(), parent, req, "pipeline.New", t0, t1)
	rec.add(rec.newID(), parent, req, "pipeline.Sim.Run", t1, t2)
	rec.add(rec.newID(), parent, req, "pipeline.Sim.Advance", t2, t3)
	rec.add(rec.newID(), parent, req, "pipeline.Sim.Stats", t3, t4)
	r.callT = time.Since(call)
	return r, nil
}

// flatten builds the record a spec must produce from its stats and its
// baseline's stats. It is written independently of harness.Session.Record,
// so a fault in the program's own flattening shows as a mismatch.
func flatten(sp harness.Spec, st, base *pipeline.Stats) harness.Record {
	speedup := 1.0
	if sp.Predictor != "none" {
		speedup = st.IPC() / base.IPC()
	}
	return harness.Record{
		Kernel:         sp.Kernel,
		Predictor:      sp.Predictor,
		Counters:       sp.Counters.String(),
		Recovery:       sp.Recovery.String(),
		IPC:            st.IPC(),
		Speedup:        speedup,
		Coverage:       st.Coverage(),
		Accuracy:       st.Accuracy(),
		Committed:      st.Committed - st.WarmCommitted,
		Cycles:         st.Cycles - st.WarmCycles,
		SquashValue:    st.SquashValue,
		SquashBranch:   st.SquashBranch,
		SquashMemOrder: st.SquashMemOrder,
		ReissuedUops:   st.ReissuedUops,
		BranchMPKI:     st.BranchMPKI(),
		B2BFraction:    st.B2BFraction(),
	}
}

// referenceRecords flattens direct runs into the expected record of every
// spec.
func referenceRecords(runs []directRun) (map[harness.Spec][]byte, error) {
	stats := make(map[harness.Spec]*pipeline.Stats, len(runs))
	for i := range runs {
		stats[runs[i].spec] = &runs[i].stats
	}
	ref := make(map[harness.Spec][]byte, len(runs))
	for i := range runs {
		sp := runs[i].spec
		base, ok := stats[sp.Baseline()]
		if !ok {
			return nil, fmt.Errorf("vpbench: no baseline run for %s", sp.Identity())
		}
		ref[sp] = canonical(flatten(sp, &runs[i].stats, base))
	}
	return ref, nil
}

// plainRecord has Record's fields and tags but none of its methods, so
// encoding it uses encoding/json's reflection encoder rather than the
// program's own hand-written codec.
type plainRecord harness.Record

// canonical is the byte form two records are compared in.
func canonical(r harness.Record) []byte {
	b, err := json.Marshal(plainRecord(r))
	if err != nil {
		// Only a non-finite float fails to encode; it can never equal a
		// reference, which is itself always finite.
		return []byte(fmt.Sprintf("unencodable record %v: %v", r, err))
	}
	return b
}

// checker compares records with their references. Safe for concurrent use.
type checker struct {
	ref map[harness.Spec][]byte // canonical spec → expected record bytes

	mu         sync.Mutex
	mismatches int
	firstBad   string
}

// ok reports whether rec, returned for sp, equals sp's reference byte for
// byte; a mismatch is remembered for the run's report.
func (c *checker) ok(sp harness.Spec, rec harness.Record) bool {
	want, found := c.ref[sp]
	if found && bytes.Equal(canonical(rec), want) {
		return true
	}
	c.mu.Lock()
	c.mismatches++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf("%s: got %s want %s", sp.Identity(), canonical(rec), want)
	}
	c.mu.Unlock()
	return false
}

// allOK checks recs[i] against specs[i] and reports whether all match.
func (c *checker) allOK(specs []harness.Spec, recs []harness.Record) bool {
	if len(specs) != len(recs) {
		c.mu.Lock()
		c.mismatches++
		c.mu.Unlock()
		return false
	}
	good := true
	for i, r := range recs {
		if !c.ok(specs[i], r) {
			good = false
		}
	}
	return good
}

// counters sums the exact simulated statistics of a spec set. They are
// simulated quantities, not host time: a change that only speeds up the
// simulator must leave every one identical.
func counters(stats []*pipeline.Stats) map[string]float64 {
	var cyc, com, fet, sqv, sqb, sqm, reis, srob, siq, slq, ssq, sreg, imiss, misp, elig, used, usedOK, usedBad uint64
	for _, st := range stats {
		cyc += uint64(st.Cycles - st.WarmCycles)
		com += st.Committed - st.WarmCommitted
		fet += st.FetchedUops
		sqv += st.SquashValue
		sqb += st.SquashBranch
		sqm += st.SquashMemOrder
		reis += st.ReissuedUops
		srob += st.StallROB
		siq += st.StallIQ
		slq += st.StallLQ
		ssq += st.StallSQ
		sreg += st.StallRegs
		imiss += st.FetchIMissStalls
		misp += st.CondMispredicts
		elig += st.Eligible
		used += st.Used
		usedOK += st.UsedCorrect
		usedBad += st.UsedWrong
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]float64{
		"pipeline.sim_cycles":            float64(cyc),
		"pipeline.committed_uops":        float64(com),
		"pipeline.fetched_uops":          float64(fet),
		"pipeline.fetched_per_committed": ratio(fet, com),
		"pipeline.squash_value":          float64(sqv),
		"pipeline.squash_branch":         float64(sqb),
		"pipeline.squash_memorder":       float64(sqm),
		"pipeline.reissued_uops":         float64(reis),
		"pipeline.stall_rob":             float64(srob),
		"pipeline.stall_iq":              float64(siq),
		"pipeline.stall_lq":              float64(slq),
		"pipeline.stall_sq":              float64(ssq),
		"pipeline.stall_regs":            float64(sreg),
		"mem.fetch_imiss_stalls":         float64(imiss),
		"bpred.cond_mispredicts":         float64(misp),
		"core.vp_eligible":               float64(elig),
		"core.vp_used":                   float64(used),
		"core.vp_used_wrong":             float64(usedBad),
		"core.vp_coverage":               ratio(used, elig),
		"core.vp_accuracy":               ratio(usedOK, used),
	}
}
