// Package bpred implements the front-end branch prediction substrate from
// the paper's Table 2: a TAGE conditional branch predictor with 1+12
// components (~15K entries total), a 2-way 4K-entry BTB, and a 32-entry
// return address stack. TAGE shares the speculative global history object
// with the VTAGE value predictor, exactly as the paper leverages "context
// that is usually already available in the processor thanks to the branch
// predictor".
package bpred

import (
	"math"

	"repro/internal/ghist"
)

// NTables is the number of tagged TAGE components (Table 2: 1+12).
const NTables = 12

// TageMeta carries fetch-time bookkeeping from Predict to the commit-time
// Train, the same role core.Meta plays for value predictors.
type TageMeta struct {
	Pred    bool
	AltPred bool
	Prov    int8 // provider table, -1 = bimodal base
	AltProv int8
	BaseIdx uint32
	Idx     [NTables]uint32
	Tag     [NTables]uint16
}

// Tage is a TAGE conditional branch direction predictor.
type Tage struct {
	hist *ghist.History

	base     []uint8 // 2-bit bimodal counters
	baseMask uint64

	tables [NTables]tageTable
	rng    uint32
}

type tageTable struct {
	entries  []tageEntry
	mask     uint64
	histLen  int
	tagBits  int
	idxFold  ghist.Fold
	tagFoldA ghist.Fold
	tagFoldB ghist.Fold
	pathFold ghist.Fold
}

type tageEntry struct {
	tag uint16
	ctr uint8 // 3-bit counter, taken if >= 4
	u   uint8 // 2-bit usefulness
}

// TageConfig sizes the predictor.
type TageConfig struct {
	LogBase   int // log2 bimodal entries (default 13 → 8K)
	LogTagged int // log2 entries per tagged table (default 9 → 512)
	MinHist   int // shortest history (default 4)
	MaxHist   int // longest history (default 640)
}

// DefaultTageConfig approximates the paper's 15K-entry TAGE.
func DefaultTageConfig() TageConfig {
	return TageConfig{LogBase: 13, LogTagged: 9, MinHist: 4, MaxHist: 640}
}

// NewTage builds a TAGE predictor over the shared global history h.
func NewTage(cfg TageConfig, h *ghist.History) *Tage {
	t := &Tage{
		hist: h,
		base: make([]uint8, 1<<cfg.LogBase),
		rng:  0x2545F491,
	}
	t.baseMask = uint64(len(t.base) - 1)
	for i := range t.base {
		t.base[i] = 2 // weakly taken
	}
	ratio := math.Pow(float64(cfg.MaxHist)/float64(cfg.MinHist), 1.0/float64(NTables-1))
	hl := float64(cfg.MinHist)
	for i := 0; i < NTables; i++ {
		tb := &t.tables[i]
		n := 1 << cfg.LogTagged
		L := int(hl + 0.5)
		tb.entries = make([]tageEntry, n)
		tb.mask = uint64(n - 1)
		tb.histLen = L
		tb.tagBits = 9 + i/2 // 9..14 bits
		if tb.tagBits > 15 {
			tb.tagBits = 15
		}
		tb.idxFold = h.RegisterFold(L, cfg.LogTagged, false)
		tb.tagFoldA = h.RegisterFold(L, tb.tagBits, false)
		tb.tagFoldB = h.RegisterFold(L, tb.tagBits-1, false)
		tb.pathFold = h.RegisterFold(min(L, 16), cfg.LogTagged, true)
		hl *= ratio
	}
	return t
}

func hash64(pc uint64) uint64 {
	z := pc + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (t *Tage) nextRand() uint32 {
	s := t.rng
	s ^= s << 13
	s ^= s >> 17
	s ^= s << 5
	t.rng = s
	return s
}

func (t *Tage) index(k int, pc uint64) uint32 {
	tb := &t.tables[k]
	h := hash64(pc)
	return uint32((h ^ h>>uint(9+k) ^ t.hist.Folded(tb.idxFold) ^ t.hist.Folded(tb.pathFold)) & tb.mask)
}

func (t *Tage) tag(k int, pc uint64) uint16 {
	tb := &t.tables[k]
	h := hash64(pc ^ 0x61C88647)
	mask := uint64(1)<<tb.tagBits - 1
	return uint16((h ^ t.hist.Folded(tb.tagFoldA) ^ t.hist.Folded(tb.tagFoldB)<<1) & mask)
}

// Predict returns the predicted direction for the conditional branch at pc
// using the current speculative history, and fills m with the bookkeeping
// for Train. m is caller-provided scratch (the pipeline passes the µop's
// in-flight payload slot) and is fully overwritten, the same contract as
// core.Predictor.Predict.
func (t *Tage) Predict(pc uint64, m *TageMeta) bool {
	m.Prov, m.AltProv = -1, -1
	m.BaseIdx = uint32(hash64(pc) & t.baseMask)
	for k := 0; k < NTables; k++ {
		m.Idx[k] = t.index(k, pc)
		m.Tag[k] = t.tag(k, pc)
		if t.tables[k].entries[m.Idx[k]].tag == m.Tag[k] {
			m.AltProv = m.Prov
			m.Prov = int8(k)
		}
	}
	basePred := t.base[m.BaseIdx] >= 2
	m.AltPred = basePred
	if m.AltProv >= 0 {
		m.AltPred = t.tables[m.AltProv].entries[m.Idx[m.AltProv]].ctr >= 4
	}
	if m.Prov >= 0 {
		m.Pred = t.tables[m.Prov].entries[m.Idx[m.Prov]].ctr >= 4
	} else {
		m.Pred = basePred
	}
	return m.Pred
}

// Train updates the predictor at commit time with the actual outcome.
func (t *Tage) Train(pc uint64, taken bool, m *TageMeta) {
	correct := m.Pred == taken

	if m.Prov >= 0 {
		e := &t.tables[m.Prov].entries[m.Idx[m.Prov]]
		if e.tag == m.Tag[m.Prov] {
			e.ctr = bump3(e.ctr, taken)
			if m.Pred != m.AltPred {
				if correct {
					if e.u < 3 {
						e.u++
					}
				} else if e.u > 0 {
					e.u--
				}
			}
		}
	} else {
		t.base[m.BaseIdx] = bump2(t.base[m.BaseIdx], taken)
	}

	if correct {
		return
	}
	// Allocate in a longer-history table with a not-useful entry.
	lo := int(m.Prov) + 1
	var cands [NTables]int
	nc := 0
	for k := lo; k < NTables; k++ {
		if t.tables[k].entries[m.Idx[k]].u == 0 {
			cands[nc] = k
			nc++
		}
	}
	if nc == 0 {
		for k := lo; k < NTables; k++ {
			e := &t.tables[k].entries[m.Idx[k]]
			if e.u > 0 {
				e.u--
			}
		}
		return
	}
	// Prefer shorter histories 2:1 to spread allocations (classic TAGE).
	pick := cands[0]
	if nc > 1 && t.nextRand()&3 == 0 {
		pick = cands[int(t.nextRand())%nc]
	}
	e := &t.tables[pick].entries[m.Idx[pick]]
	*e = tageEntry{tag: m.Tag[pick], ctr: weakCtr(taken), u: 0}
}

func weakCtr(taken bool) uint8 {
	if taken {
		return 4
	}
	return 3
}

func bump3(c uint8, up bool) uint8 {
	if up {
		if c < 7 {
			return c + 1
		}
		return 7
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func bump2(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

// StorageBits reports the predictor's storage cost.
func (t *Tage) StorageBits() int {
	bits := len(t.base) * 2
	for i := range t.tables {
		tb := &t.tables[i]
		bits += len(tb.entries) * (tb.tagBits + 3 + 2)
	}
	return bits
}

// Entries reports the total entry count (paper: ~15K).
func (t *Tage) Entries() int {
	n := len(t.base)
	for i := range t.tables {
		n += len(t.tables[i].entries)
	}
	return n
}

// HistLen returns table k's history length (for tests).
func (t *Tage) HistLen(k int) int { return t.tables[k].histLen }
