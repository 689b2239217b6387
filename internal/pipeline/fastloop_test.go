package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/isa"
)

// TestFastLoopMatchesReference pins the specialized simulate loop
// (devirtualized predictor dispatch + idle-cycle skipping) byte-identical
// to the reference loop (interface dispatch, a step every cycle) for every
// predictor family × both recovery modes × every oracle input: mcf is
// memory-bound (long idle windows the fast loop skips), gzip is branchy
// (frequent squashes and short windows), and the generated programs add
// branch-pressure, memory-order and mixed workloads.
func TestFastLoopMatchesReference(t *testing.T) {
	w, m := testWin(8_000, 20_000)
	total := w + m

	for _, in := range oracleInputs(t) {
		kernel := in.name
		tr := emu.Trace(in.prog, int(total))
		for name, mk := range snapPredictors() {
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec

				run := func(ref bool) (*Stats, []uint64) {
					h := &ghist.History{}
					var p core.Predictor
					if mk != nil {
						p = mk(h)
					}
					s := New(cfg, tr, p, h)
					s.SetReferenceLoop(ref)
					var seqs []uint64
					s.OnCommit = func(di *isa.DynInst) { seqs = append(seqs, di.Seq) }
					st, err := s.Run(w, m)
					if err != nil {
						t.Fatalf("%s/%s/%v (ref=%v): %v", kernel, name, rec, ref, err)
					}
					return st, seqs
				}

				refSt, refSeqs := run(true)
				fastSt, fastSeqs := run(false)

				if *fastSt != *refSt {
					t.Errorf("%s/%s/%v: fast loop diverged from reference:\n fast %+v\n  ref %+v",
						kernel, name, rec, *fastSt, *refSt)
				}
				if len(fastSeqs) != len(refSeqs) {
					t.Fatalf("%s/%s/%v: commit stream length %d != %d",
						kernel, name, rec, len(fastSeqs), len(refSeqs))
				}
				for i := range fastSeqs {
					if fastSeqs[i] != refSeqs[i] {
						t.Fatalf("%s/%s/%v: commit stream diverges at %d: %d != %d",
							kernel, name, rec, i, fastSeqs[i], refSeqs[i])
					}
				}
			}
		}
	}
}

// TestFastLoopSkipsIdleCycles asserts the fast loop actually exercises the
// skip path on a memory-bound kernel: the machine must reach the same final
// cycle as the reference while calling step far fewer times. Without this,
// a silently dead skip predicate would keep the differential test green
// while losing the speedup it exists to provide.
func TestFastLoopSkipsIdleCycles(t *testing.T) {
	w, m := testWin(4_000, 12_000)
	cfg := DefaultConfig()
	s, err := NewForKernel(cfg, "mcf", int(w+m), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Run(w, m)
	if err != nil {
		t.Fatal(err)
	}
	// Count no-op steps indirectly: re-run in reference mode and compare
	// cycles (identical) — then confirm skipping happened by construction:
	// on mcf a large fraction of cycles are idle waits on DRAM, so the
	// committed-µop/cycle ratio is low while the fast loop's wall clock is
	// dominated by active cycles only. The cheap observable proxy here is
	// that at least one skip occurred, which we detect by stepping a fresh
	// sim manually and watching the cycle counter jump.
	s2, err := NewForKernel(cfg, "mcf", int(w+m), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	jumped := false
	for s2.Stats().Committed < w+m && steps < 10_000_000 {
		before := s2.cycle
		s2.step()
		s2.maybeSkipIdle()
		if s2.cycle > before+1 {
			jumped = true
		}
		steps++
	}
	if !jumped {
		t.Fatal("fast loop never skipped an idle cycle on mcf")
	}
	if int64(steps) >= s2.cycle {
		t.Fatalf("fast loop stepped every cycle (%d steps for %d cycles)", steps, s2.cycle)
	}
	if s2.cycle != st.Cycles {
		t.Fatalf("manual stepping ended at cycle %d, Run ended at %d", s2.cycle, st.Cycles)
	}
}
