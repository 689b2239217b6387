package ghist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPushAndBit(t *testing.T) {
	var h History
	h.Push(true, 0x10)
	h.Push(false, 0x20)
	h.Push(true, 0x30)
	if !h.Bit(0) {
		t.Error("Bit(0) = false, want true (newest)")
	}
	if h.Bit(1) {
		t.Error("Bit(1) = true, want false")
	}
	if !h.Bit(2) {
		t.Error("Bit(2) = false, want true (oldest)")
	}
	if h.Bit(3) {
		t.Error("Bit(3) beyond history should be false")
	}
}

// referenceFold computes the fold value directly from the definition: bit of
// age a contributes at position a mod width.
func referenceFold(h *History, length, width int, path bool) uint64 {
	mask := uint64(1)<<width - 1
	n := length
	if uint64(n) > h.pos {
		n = int(h.pos)
	}
	var v uint64
	for a := 0; a < n; a++ {
		e := uint64(h.recent(a, path)) & mask
		v ^= naiveRotl(e, a%width, width)
	}
	return v
}

// naiveRotl rotates the width-bit value v left by n < width, bit by bit.
func naiveRotl(v uint64, n, width int) uint64 {
	for ; n > 0; n-- {
		top := v >> (width - 1) & 1
		v = (v<<1 | top) & (uint64(1)<<width - 1)
	}
	return v
}

func TestFoldMatchesReferenceIncrementally(t *testing.T) {
	var h History
	f1 := h.RegisterFold(8, 5, false)
	f2 := h.RegisterFold(37, 11, false)
	f3 := h.RegisterFold(16, 7, true)

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		h.Push(rng.Intn(2) == 0, uint64(rng.Intn(1<<16)))
		if got, want := h.Folded(f1), referenceFold(&h, 8, 5, false); got != want {
			t.Fatalf("push %d: fold(8,5) = %#x, want %#x", i, got, want)
		}
		if got, want := h.Folded(f2), referenceFold(&h, 37, 11, false); got != want {
			t.Fatalf("push %d: fold(37,11) = %#x, want %#x", i, got, want)
		}
		if got, want := h.Folded(f3), referenceFold(&h, 16, 7, true); got != want {
			t.Fatalf("push %d: path fold(16,7) = %#x, want %#x", i, got, want)
		}
	}
}

func TestRollToRestoresFolds(t *testing.T) {
	var h History
	f := h.RegisterFold(20, 9, false)
	rng := rand.New(rand.NewSource(11))

	for i := 0; i < 100; i++ {
		h.Push(rng.Intn(2) == 0, uint64(i))
	}
	snapPos := h.Pos()
	snapVal := h.Folded(f)

	for i := 0; i < 30; i++ {
		h.Push(rng.Intn(3) == 0, uint64(1000+i))
	}
	h.RollTo(snapPos)

	if h.Pos() != snapPos {
		t.Errorf("Pos after RollTo = %d, want %d", h.Pos(), snapPos)
	}
	if got := h.Folded(f); got != snapVal {
		t.Errorf("fold after RollTo = %#x, want %#x", got, snapVal)
	}
	// History must be replayable identically after rollback.
	h.Push(true, 42)
	if got, want := h.Folded(f), referenceFold(&h, 20, 9, false); got != want {
		t.Errorf("fold after rollback+push = %#x, want %#x", got, want)
	}
}

func TestRollToNewerPosIsNoop(t *testing.T) {
	var h History
	h.Push(true, 1)
	h.RollTo(99)
	if h.Pos() != 1 {
		t.Errorf("Pos = %d, want 1", h.Pos())
	}
}

func TestFoldWidthClamping(t *testing.T) {
	var h History
	f := h.RegisterFold(4, 0, false) // width clamped to 1
	h.Push(true, 1)
	if v := h.Folded(f); v > 1 {
		t.Errorf("1-bit fold value %d out of range", v)
	}
}

func TestFoldLengthClampedToCapacity(t *testing.T) {
	var h History
	f := h.RegisterFold(Capacity*2, 10, false)
	for i := 0; i < Capacity+10; i++ {
		h.Push(i%3 == 0, uint64(i))
	}
	if got := h.Folded(f); got != referenceFold(&h, Capacity-1, 10, false) {
		t.Error("over-capacity fold diverged from reference")
	}
}

// Property: fold values always fit in their declared width.
func TestFoldRangeProperty(t *testing.T) {
	f := func(seed int64, width uint8) bool {
		w := int(width%16) + 1
		var h History
		fd := h.RegisterFold(32, w, false)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			h.Push(rng.Intn(2) == 0, uint64(rng.Int()))
			if h.Folded(fd) >= uint64(1)<<w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: two histories fed the same sequence have identical folds
// (determinism), and differ with overwhelming probability after divergent
// suffixes longer than the fold window are applied then compared.
func TestFoldDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		var a, b History
		fa := a.RegisterFold(24, 10, false)
		fb := b.RegisterFold(24, 10, false)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			taken := rng.Intn(2) == 0
			pc := uint64(rng.Int())
			a.Push(taken, pc)
			b.Push(taken, pc)
		}
		return a.Folded(fa) == b.Folded(fb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDuplicateRegistrationSharesHandle(t *testing.T) {
	var h History
	a := h.RegisterFold(16, 9, true)
	b := h.RegisterFold(20, 9, false)
	if got := h.RegisterFold(16, 9, true); got != a {
		t.Errorf("re-registering (16,9,path) = %d, want handle %d", got, a)
	}
	if got := h.RegisterFold(20, 9, false); got != b {
		t.Errorf("re-registering (20,9) = %d, want handle %d", got, b)
	}
	// Views equal only after clamping are the same view too.
	c := h.RegisterFold(Capacity*4, 0, false)
	if got := h.RegisterFold(Capacity-1, 1, false); got != c {
		t.Errorf("clamped duplicate = %d, want handle %d", got, c)
	}
	// Any differing coordinate is a distinct view.
	for _, v := range [][3]int{{16, 9, 0}, {16, 8, 1}, {17, 9, 1}} {
		if got := h.RegisterFold(v[0], v[1], v[2] == 1); got == a {
			t.Errorf("RegisterFold%v shares handle %d with (16,9,path)", v, a)
		}
	}
	if n := len(h.folds); n != 6 {
		t.Errorf("%d folds maintained, want 6 distinct", n)
	}
}

// TestDedupedFoldsMatchNaiveUnderRollback drives a history whose folds
// include duplicate registrations through random Push/RollTo sequences and
// checks every handle against the naive definition after each operation.
// The geometry covers length%width == 0 (no eviction rotation), width 1,
// path folds, and windows longer than the checkpoint-valid region.
func TestDedupedFoldsMatchNaiveUnderRollback(t *testing.T) {
	type view struct {
		length, width int
		path          bool
	}
	views := []view{
		{8, 5, false}, {18, 9, false}, {9, 9, false}, {16, 1, false},
		{1, 1, true}, {16, 9, true}, {16, 8, true}, {37, 11, false},
		{300, 10, false}, {16, 9, true}, {18, 9, false}, {16, 1, false},
	}
	rng := rand.New(rand.NewSource(23))
	var h History
	handles := make([]Fold, len(views))
	for i, v := range views {
		handles[i] = h.RegisterFold(v.length, v.width, v.path)
	}
	var marks []uint64
	check := func(op string, step int) {
		t.Helper()
		for i, v := range views {
			want := referenceFold(&h, v.length, v.width, v.path)
			if got := h.Folded(handles[i]); got != want {
				t.Fatalf("step %d (%s): fold%v = %#x, naive %#x", step, op, v, got, want)
			}
		}
	}
	for step := 0; step < 4000; step++ {
		switch r := rng.Intn(10); {
		case r < 7:
			h.Push(rng.Intn(2) == 0, uint64(rng.Intn(1<<16)))
			if rng.Intn(8) == 0 {
				marks = append(marks, h.Pos())
			}
			check("push", step)
		case len(marks) > 0:
			// Roll back to a recorded position no older than the ring holds.
			i := rng.Intn(len(marks))
			h.RollTo(marks[i])
			marks = marks[:i]
			check("rollto", step)
		}
	}
}

func TestSnapshotRestoreAcrossDedupedFolds(t *testing.T) {
	build := func() (*History, []Fold) {
		h := &History{}
		var fs []Fold
		for _, v := range [][3]int{{12, 9, 0}, {16, 9, 1}, {12, 9, 0}, {40, 7, 0}, {16, 9, 1}} {
			fs = append(fs, h.RegisterFold(v[0], v[1], v[2] == 1))
		}
		return h, fs
	}
	src, fs := build()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 700; i++ {
		src.Push(rng.Intn(2) == 0, uint64(rng.Intn(1<<16)))
	}
	st := src.Snapshot()
	if len(st.vals) != 3 {
		t.Fatalf("snapshot carries %d fold values, want 3 distinct", len(st.vals))
	}
	dst, dfs := build()
	dst.Restore(st)
	for i := range fs {
		if dst.Folded(dfs[i]) != src.Folded(fs[i]) {
			t.Fatalf("handle %d: restored %#x, source %#x", i, dst.Folded(dfs[i]), src.Folded(fs[i]))
		}
	}
	// Both continue identically, including a rollback past the restore
	// point (replay path) and one inside the fresh checkpoint window.
	pos := dst.Pos()
	for i := 0; i < 50; i++ {
		taken, pc := rng.Intn(2) == 0, uint64(rng.Intn(1<<16))
		src.Push(taken, pc)
		dst.Push(taken, pc)
	}
	mid := dst.Pos() - 20
	for _, p := range []uint64{mid, pos - 10} {
		src.RollTo(p)
		dst.RollTo(p)
		for i := range fs {
			if dst.Folded(dfs[i]) != src.Folded(fs[i]) {
				t.Fatalf("after RollTo(%d) handle %d: restored %#x, source %#x",
					p, i, dst.Folded(dfs[i]), src.Folded(fs[i]))
			}
		}
	}
}
