package bpred

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ghist"
)

// runPattern feeds TAGE a branch at pc whose outcome follows pattern
// cyclically, training after each prediction, and returns the accuracy over
// the last `tail` occurrences.
func runPattern(t *Tage, h *ghist.History, pc uint64, pattern []bool, n, tail int) float64 {
	correct := 0
	for i := 0; i < n; i++ {
		outcome := pattern[i%len(pattern)]
		var m TageMeta
		pred := t.Predict(pc, &m)
		if i >= n-tail && pred == outcome {
			correct++
		}
		t.Train(pc, outcome, &m)
		h.Push(outcome, pc)
	}
	return float64(correct) / float64(tail)
}

func TestTageAlwaysTaken(t *testing.T) {
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	if acc := runPattern(tg, &h, 100, []bool{true}, 200, 100); acc != 1.0 {
		t.Errorf("always-taken accuracy = %.3f, want 1.0", acc)
	}
}

func TestTageShortPeriodicPattern(t *testing.T) {
	// TTN repeating — bimodal alone cannot exceed 2/3, TAGE must nail it.
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	if acc := runPattern(tg, &h, 100, []bool{true, true, false}, 3000, 500); acc < 0.98 {
		t.Errorf("TTN pattern accuracy = %.3f, want ≥ 0.98", acc)
	}
}

func TestTageLongPeriodicPattern(t *testing.T) {
	// Period-17 pattern requires a history longer than bimodal's zero.
	pattern := make([]bool, 17)
	for i := range pattern {
		pattern[i] = i%3 == 0
	}
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	if acc := runPattern(tg, &h, 100, pattern, 6000, 1000); acc < 0.95 {
		t.Errorf("period-17 accuracy = %.3f, want ≥ 0.95", acc)
	}
}

func TestTageHistoryLengthsGeometric(t *testing.T) {
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	if got := tg.HistLen(0); got != 4 {
		t.Errorf("first history length = %d, want 4", got)
	}
	if got := tg.HistLen(NTables - 1); got != 640 {
		t.Errorf("last history length = %d, want 640", got)
	}
	for k := 1; k < NTables; k++ {
		if tg.HistLen(k) <= tg.HistLen(k-1) {
			t.Errorf("history lengths not increasing at %d: %d <= %d", k, tg.HistLen(k), tg.HistLen(k-1))
		}
	}
}

func TestTageEntryBudget(t *testing.T) {
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	// Paper: "15K-entry total". 8192 + 12*512 = 14336.
	if n := tg.Entries(); n < 14000 || n > 16000 {
		t.Errorf("TAGE entries = %d, want ≈ 15K", n)
	}
}

func TestTageCorrelatedBranches(t *testing.T) {
	// Branch B is always the opposite of the preceding branch A: global
	// history correlation that bimodal can't see when A is random.
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	rng := rand.New(rand.NewSource(3))
	correctB := 0
	const n, tail = 8000, 1000
	for i := 0; i < n; i++ {
		a := rng.Intn(2) == 0
		var ma, mb TageMeta
		tg.Predict(10, &ma)
		tg.Train(10, a, &ma)
		h.Push(a, 10)

		b := !a
		predB := tg.Predict(20, &mb)
		if i >= n-tail && predB == b {
			correctB++
		}
		tg.Train(20, b, &mb)
		h.Push(b, 20)
	}
	if acc := float64(correctB) / tail; acc < 0.95 {
		t.Errorf("correlated branch accuracy = %.3f, want ≥ 0.95", acc)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(12)
	if _, hit := b.Lookup(0x400); hit {
		t.Error("empty BTB hit")
	}
	b.Insert(0x400, 77)
	if tgt, hit := b.Lookup(0x400); !hit || tgt != 77 {
		t.Errorf("Lookup = (%d,%v), want (77,true)", tgt, hit)
	}
	b.Insert(0x400, 99) // update in place
	if tgt, _ := b.Lookup(0x400); tgt != 99 {
		t.Errorf("updated target = %d, want 99", tgt)
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	b := NewBTB(1) // 1 set, 2 ways
	b.Insert(1, 10)
	b.Insert(2, 20)
	b.Lookup(1)     // make pc=1 MRU
	b.Insert(3, 30) // must evict pc=2
	if _, hit := b.Lookup(1); !hit {
		t.Error("MRU entry evicted")
	}
	if _, hit := b.Lookup(2); hit {
		t.Error("LRU entry survived")
	}
	if tgt, hit := b.Lookup(3); !hit || tgt != 30 {
		t.Error("new entry not inserted")
	}
}

func TestBTBEntries(t *testing.T) {
	if got := NewBTB(12).Entries(); got != 4096 {
		t.Errorf("Entries = %d, want 4096", got)
	}
}

func TestRASPushPop(t *testing.T) {
	var r RAS
	r.Push(100)
	r.Push(200)
	if got := r.Pop(); got != 200 {
		t.Errorf("Pop = %d, want 200", got)
	}
	if got := r.Pop(); got != 100 {
		t.Errorf("Pop = %d, want 100", got)
	}
}

func TestRASRestore(t *testing.T) {
	var r RAS
	r.Push(100)
	chk := r.Top()
	r.Push(200)
	r.Pop()
	r.Pop() // wrong-path pops
	r.Restore(chk)
	if got := r.Pop(); got != 100 {
		t.Errorf("after restore Pop = %d, want 100", got)
	}
}

func TestRASDepthWraps(t *testing.T) {
	var r RAS
	for i := uint32(0); i < 40; i++ {
		r.Push(i)
	}
	// The last 32 pushes survive; deeper frames were overwritten.
	for i := uint32(39); i >= 8; i-- {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
}

// Property: TAGE Predict/Train never panic and stay in range under random
// interleavings of branches, outcomes, and history pushes.
func TestTageRobustProperty(t *testing.T) {
	var h ghist.History
	tg := NewTage(DefaultTageConfig(), &h)
	f := func(pc uint64, outcome, push bool) bool {
		var m TageMeta
		tg.Predict(pc, &m)
		tg.Train(pc, outcome, &m)
		if push {
			h.Push(outcome, pc)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}
