package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/ghist"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memdep"
	"repro/internal/regfile"
)

// State is an opaque snapshot of a whole Sim: every piece of mutable
// machine state — ROB and stage worklists, fetch queue, predictor payload
// rings, rename map, memory hierarchy, branch and value predictors, global
// history, statistics — deep copied mid-flight. Taken at the warmup
// boundary it lets a sweep re-run the measurement phase without re-paying
// warmup, byte-identically to a straight-through run (DESIGN.md §9).
//
// A State is only meaningful for a Sim built with New over the same trace
// and the same Config (and a predictor of the same configuration): Restore
// reinstates state in place and never reallocates, so all sizes must match.
type State struct {
	cycle int64

	rob    []robEntry
	head   int
	tail   int
	count  int
	iqUsed int
	lqUsed int
	sqUsed int

	lists [5]slotListState // waitIssue, waitWB, iqHeld, inFlightLd, inFlightSt

	feq     []feEntry
	feqHead int
	feqLen  int

	vpMeta []core.Meta
	brMeta []bpred.TageMeta

	fetchIdx     int
	nextFetchCyc int64
	fetchBlocked bool
	lastFetchCyc []int64

	lastProd [isa.NumRegs]int

	divFree   []int64
	fpDivFree []int64

	warmupUops uint64
	warmed     bool

	stats Stats

	hist  *ghist.State
	tage  *bpred.TageState
	btb   *bpred.BTBState
	ras   bpred.RASState
	l1i   *mem.CacheState
	l1d   *mem.CacheState
	l2    *mem.CacheState
	mm    *dram.State
	ssets *memdep.State
	regs  regfile.State

	pred core.PredictorState // nil when the sim has no value predictor
}

type slotListState struct {
	head, tail int
	next, prev []int
}

func (l *slotList) snapshot() slotListState {
	return slotListState{
		head: l.head,
		tail: l.tail,
		next: append([]int(nil), l.next...),
		prev: append([]int(nil), l.prev...),
	}
}

func (l *slotList) restore(st slotListState) {
	l.head = st.head
	l.tail = st.tail
	copy(l.next, st.next)
	copy(l.prev, st.prev)
}

// Snapshot deep-copies the simulator's complete mutable state. The trace,
// configuration, and OnCommit hook are not captured: they are identity, not
// state.
func (s *Sim) Snapshot() *State {
	st := &State{
		cycle:        s.cycle,
		rob:          append([]robEntry(nil), s.rob...),
		head:         s.head,
		tail:         s.tail,
		count:        s.count,
		iqUsed:       s.iqUsed,
		lqUsed:       s.lqUsed,
		sqUsed:       s.sqUsed,
		feq:          append([]feEntry(nil), s.feq...),
		feqHead:      s.feqHead,
		feqLen:       s.feqLen,
		vpMeta:       append([]core.Meta(nil), s.vpMeta...),
		brMeta:       append([]bpred.TageMeta(nil), s.brMeta...),
		fetchIdx:     s.fetchIdx,
		nextFetchCyc: s.nextFetchCyc,
		fetchBlocked: s.fetchBlocked,
		lastFetchCyc: append([]int64(nil), s.lastFetchCyc...),
		lastProd:     s.lastProd,
		divFree:      append([]int64(nil), s.divFree...),
		fpDivFree:    append([]int64(nil), s.fpDivFree...),
		warmupUops:   s.warmupUops,
		warmed:       s.warmed,
		stats:        s.stats,
		hist:         s.hist.Snapshot(),
		tage:         s.tage.Snapshot(),
		btb:          s.btb.Snapshot(),
		ras:          s.ras.Snapshot(),
		l1i:          s.l1i.Snapshot(),
		l1d:          s.l1d.Snapshot(),
		l2:           s.l2.Snapshot(),
		mm:           s.mm.Snapshot(),
		ssets:        s.ssets.Snapshot(),
		regs:         s.regs.Snapshot(),
	}
	st.lists[0] = s.waitIssue.snapshot()
	st.lists[1] = s.waitWB.snapshot()
	st.lists[2] = s.iqHeld.snapshot()
	st.lists[3] = s.inFlightLd.snapshot()
	st.lists[4] = s.inFlightSt.snapshot()
	if s.pred != nil {
		st.pred = s.pred.Snapshot()
	}
	return st
}

// Restore reinstates a snapshot on a Sim constructed with New over the same
// trace, config, and predictor configuration. All state is written in place;
// the shared global-history wiring between the sim, TAGE, and
// history-reading value predictors is preserved.
func (s *Sim) Restore(st *State) {
	if len(st.rob) != len(s.rob) || len(st.feq) != len(s.feq) ||
		len(st.vpMeta) != len(s.vpMeta) || len(st.brMeta) != len(s.brMeta) ||
		len(st.lastFetchCyc) != len(s.lastFetchCyc) ||
		(st.pred == nil) != (s.pred == nil) {
		panic("pipeline: snapshot does not match this sim's configuration")
	}
	s.cycle = st.cycle
	copy(s.rob, st.rob)
	s.head = st.head
	s.tail = st.tail
	s.count = st.count
	s.iqUsed = st.iqUsed
	s.lqUsed = st.lqUsed
	s.sqUsed = st.sqUsed
	s.waitIssue.restore(st.lists[0])
	s.waitWB.restore(st.lists[1])
	s.iqHeld.restore(st.lists[2])
	s.inFlightLd.restore(st.lists[3])
	s.inFlightSt.restore(st.lists[4])
	copy(s.feq, st.feq)
	s.feqHead = st.feqHead
	s.feqLen = st.feqLen
	copy(s.vpMeta, st.vpMeta)
	copy(s.brMeta, st.brMeta)
	s.fetchIdx = st.fetchIdx
	s.nextFetchCyc = st.nextFetchCyc
	s.fetchBlocked = st.fetchBlocked
	copy(s.lastFetchCyc, st.lastFetchCyc)
	s.lastProd = st.lastProd
	copy(s.divFree, st.divFree)
	copy(s.fpDivFree, st.fpDivFree)
	s.warmupUops = st.warmupUops
	s.warmed = st.warmed
	s.stats = st.stats
	s.hist.Restore(st.hist)
	s.tage.Restore(st.tage)
	s.btb.Restore(st.btb)
	s.ras.RestoreState(st.ras)
	s.l1i.Restore(st.l1i)
	s.l1d.Restore(st.l1d)
	s.l2.Restore(st.l2)
	s.mm.Restore(st.mm)
	s.ssets.Restore(st.ssets)
	s.regs.Restore(st.regs)
	if s.pred != nil {
		s.pred.Restore(st.pred)
	}
	// The writeback-skip bound is not part of the captured state: force a
	// fresh scan, which recomputes it exactly.
	s.wbMinDone = 0
}
