package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ghist"
	"repro/internal/isa"
)

// snapPredictors covers every predictor family the harness can build,
// including the hybrids' cross-feeding and the oracle's feed path.
func snapPredictors() map[string]func(h *ghist.History) core.Predictor {
	return map[string]func(h *ghist.History) core.Predictor{
		"none":   nil,
		"oracle": func(h *ghist.History) core.Predictor { return &core.Oracle{} },
		"lvp":    func(h *ghist.History) core.Predictor { return core.NewLVP(10, core.FPCBaseline, 3) },
		"stride": func(h *ghist.History) core.Predictor { return core.NewStride2D(10, core.FPCBaseline, 3) },
		"fcm":    func(h *ghist.History) core.Predictor { return core.NewFCM(4, 10, core.FPCBaseline, 3) },
		"gdiff":  func(h *ghist.History) core.Predictor { return core.NewGDiff(10, core.FPCBaseline, 3) },
		"ps": func(h *ghist.History) core.Predictor {
			return core.NewPS(10, 10, core.FPCBaseline, 3, h)
		},
		"vtage": func(h *ghist.History) core.Predictor {
			return core.NewVTAGE(core.DefaultVTAGEConfig(core.FPCCommit), h)
		},
		"vtage+stride": func(h *ghist.History) core.Predictor {
			return core.NewHybrid(core.NewVTAGE(core.DefaultVTAGEConfig(core.FPCCommit), h),
				core.NewStride2D(10, core.FPCCommit, 4))
		},
	}
}

// TestSnapshotRestoreByteIdentical is the tentpole differential: for every
// oracle input × predictor family × both recovery modes, a run that
// snapshots at the warmup boundary, restores into a FRESH sim, and advances
// to the end must reproduce the straight-through Run(warmup, measure)
// exactly — same Stats, same commit stream — and continuing the donor sim
// must not corrupt the snapshot (deep-copy check).
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	w, m := testWin(8_000, 20_000)
	total := w + m

	for _, in := range oracleInputs(t) {
		tr := emu.Trace(in.prog, int(total))
		for pname, mk := range snapPredictors() {
			name := in.name + "/" + pname
			for _, rec := range []RecoveryMode{SquashAtCommit, SelectiveReissue} {
				cfg := DefaultConfig()
				cfg.Recovery = rec

				build := func() *Sim {
					h := &ghist.History{}
					var p core.Predictor
					if mk != nil {
						p = mk(h)
					}
					return New(cfg, tr, p, h)
				}

				// Reference: one straight run, recording the commit stream.
				ref := build()
				var refSeqs []uint64
				ref.OnCommit = func(di *isa.DynInst) { refSeqs = append(refSeqs, di.Seq) }
				refStats, err := ref.Run(w, m)
				if err != nil {
					t.Fatalf("%s/%v: ref run: %v", name, rec, err)
				}

				// Donor: warm up, snapshot, then keep running to the end.
				donor := build()
				if _, err := donor.Run(w, 0); err != nil {
					t.Fatalf("%s/%v: warmup: %v", name, rec, err)
				}
				snap := donor.Snapshot()
				atSnap := donor.Stats().Committed
				donorStats, err := donor.Advance(total - atSnap)
				if err != nil {
					t.Fatalf("%s/%v: donor advance: %v", name, rec, err)
				}
				if *donorStats != *refStats {
					t.Errorf("%s/%v: warmed-then-advanced stats differ from straight run:\n%+v\nvs\n%+v",
						name, rec, *donorStats, *refStats)
				}

				// Restore into a fresh sim and advance to the end. The commit
				// stream after the snapshot point must match the reference's
				// suffix, and the final stats must be equal.
				fresh := build()
				fresh.Restore(snap)
				var seqs []uint64
				fresh.OnCommit = func(di *isa.DynInst) { seqs = append(seqs, di.Seq) }
				freshStats, err := fresh.Advance(total - atSnap)
				if err != nil {
					t.Fatalf("%s/%v: restored advance: %v", name, rec, err)
				}
				if *freshStats != *refStats {
					t.Errorf("%s/%v: restored stats differ from straight run:\n%+v\nvs\n%+v",
						name, rec, *freshStats, *refStats)
				}
				suffix := refSeqs[atSnap:]
				if len(seqs) != len(suffix) {
					t.Fatalf("%s/%v: restored run committed %d µops, reference suffix has %d",
						name, rec, len(seqs), len(suffix))
				}
				for i := range seqs {
					if seqs[i] != suffix[i] {
						t.Fatalf("%s/%v: commit stream diverges at %d: %d vs %d",
							name, rec, i, seqs[i], suffix[i])
					}
				}
			}
		}
	}
}

// TestSnapshotReusableTwice restores the same snapshot into two fresh sims
// and checks both runs agree — the snapshot must survive being consumed.
func TestSnapshotReusableTwice(t *testing.T) {
	w, m := testWin(8_000, 20_000)
	total := w + m
	cfg := DefaultConfig()

	build := func() *Sim {
		h := &ghist.History{}
		p := core.NewHybrid(core.NewVTAGE(core.DefaultVTAGEConfig(core.FPCCommit), h),
			core.NewStride2D(10, core.FPCCommit, 4))
		s, err := NewForKernel(cfg, "mcf", int(total), p, h)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	donor := build()
	if _, err := donor.Run(w, 0); err != nil {
		t.Fatal(err)
	}
	snap := donor.Snapshot()
	atSnap := donor.Stats().Committed

	var got [2]Stats
	for i := range got {
		s := build()
		s.Restore(snap)
		st, err := s.Advance(total - atSnap)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = *st
	}
	if got[0] != got[1] {
		t.Errorf("two restores of one snapshot disagree:\n%+v\nvs\n%+v", got[0], got[1])
	}
}

// TestRestoreRejectsMismatchedShape locks the guard: restoring a snapshot
// into a sim with a different configuration must panic, not silently
// corrupt state.
func TestRestoreRejectsMismatchedShape(t *testing.T) {
	s1, err := NewForKernel(DefaultConfig(), "gzip", 5_000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(1_000, 0); err != nil {
		t.Fatal(err)
	}
	snap := s1.Snapshot()

	cfg := DefaultConfig()
	cfg.ROB = cfg.ROB / 2
	s2, err := NewForKernel(cfg, "gzip", 5_000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Restore with mismatched ROB size did not panic")
		}
	}()
	s2.Restore(snap)
}
