package memdep

import "testing"

func TestNoSetNoWait(t *testing.T) {
	s := New(10)
	if _, wait := s.LoadFetched(100); wait {
		t.Error("load with no store set told to wait")
	}
	if _, has := s.StoreFetched(200, 1); has {
		t.Error("store with no set returned a predecessor")
	}
}

func TestViolationCreatesSharedSet(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	if s.SSID(100) == Invalid || s.SSID(100) != s.SSID(200) {
		t.Fatalf("load/store SSIDs = %d,%d, want equal and valid", s.SSID(100), s.SSID(200))
	}
}

func TestLoadWaitsForInFlightStore(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 55)
	tok, wait := s.LoadFetched(100)
	if !wait || tok != 55 {
		t.Errorf("LoadFetched = (%d,%v), want (55,true)", tok, wait)
	}
	s.StoreRetired(200, 55)
	if _, wait := s.LoadFetched(100); wait {
		t.Error("load still waiting after store retired")
	}
}

func TestStoreChainReturnsPredecessor(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.Violation(100, 300) // second store joins the same set
	if s.SSID(200) != s.SSID(300) {
		t.Fatal("stores not merged into one set")
	}
	s.StoreFetched(200, 1)
	prev, has := s.StoreFetched(300, 2)
	if !has || prev != 1 {
		t.Errorf("store chaining: prev = (%d,%v), want (1,true)", prev, has)
	}
}

func TestMergeAdoptsSmallerSSID(t *testing.T) {
	s := New(10)
	s.Violation(1, 2) // set A
	s.Violation(3, 4) // set B
	a, b := s.SSID(1), s.SSID(3)
	if a == b {
		t.Skip("hash collision placed both violations in one set")
	}
	s.Violation(1, 4) // merges A and B
	if s.SSID(1) != s.SSID(4) {
		t.Error("sets not merged after cross violation")
	}
	got := s.SSID(1)
	if got != minU32(a, b) {
		t.Errorf("merged SSID = %d, want min(%d,%d)", got, a, b)
	}
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func TestClearInvalidatesLFST(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 9)
	s.Clear()
	if _, wait := s.LoadFetched(100); wait {
		t.Error("LFST entry survived Clear")
	}
}

func TestStoreRetiredOnlyClearsOwnToken(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 1)
	s.StoreFetched(200, 2) // newer instance of the same store
	s.StoreRetired(200, 1) // old instance retires
	if _, wait := s.LoadFetched(100); !wait {
		t.Error("newer in-flight store forgotten when older instance retired")
	}
}

// A token fetched before a Clear belongs to a squashed store: retiring it
// afterwards must neither disturb the set nor resurrect the entry.
func TestStoreRetiredStaleTokenAfterClearIsNoop(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 5)
	s.Clear()
	s.StoreRetired(200, 5)
	if _, wait := s.LoadFetched(100); wait {
		t.Error("stale retire revived a cleared LFST entry")
	}
	if _, has := s.StoreFetched(200, 9); has {
		t.Error("first store after Clear chained to a squashed predecessor")
	}
	s.StoreRetired(200, 5)
	if tok, wait := s.LoadFetched(100); !wait || tok != 9 {
		t.Errorf("LoadFetched = (%d,%v) after a stale retire, want (9,true)", tok, wait)
	}
}

// At the last epoch before wraparound, Clear must fall back to resetting
// every entry: both entries stamped with that last epoch and entries left
// over from the first epoch, which the wrapped counter would otherwise
// make current again.
func TestClearAtEpochWraparound(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.Violation(300, 400)
	s.StoreFetched(200, 7) // stamped with the first epoch, never retired
	s.epoch = ^uint32(0)   // as if 2^32-2 Clears had happened since
	s.StoreFetched(400, 8)
	s.Clear()
	if s.epoch == 0 {
		t.Fatal("epoch wrapped to 0, which marks invalid entries")
	}
	for _, pc := range []uint64{100, 300} {
		if _, wait := s.LoadFetched(pc); wait {
			t.Errorf("load %d: LFST entry survived Clear at epoch wraparound", pc)
		}
	}
	// The table keeps working after the reset.
	s.StoreFetched(200, 11)
	if tok, wait := s.LoadFetched(100); !wait || tok != 11 {
		t.Errorf("LoadFetched after wraparound = (%d,%v), want (11,true)", tok, wait)
	}
}

func TestSnapshotCarriesEpoch(t *testing.T) {
	s := New(10)
	s.Violation(100, 200)
	s.StoreFetched(200, 3)
	s.Clear()
	s.Clear()
	s.StoreFetched(200, 4)
	st := s.Snapshot()

	r := New(10)
	r.Restore(st)
	if r.epoch != s.epoch {
		t.Fatalf("restored epoch %d, want %d", r.epoch, s.epoch)
	}
	if tok, wait := r.LoadFetched(100); !wait || tok != 4 {
		t.Errorf("restored LoadFetched = (%d,%v), want (4,true)", tok, wait)
	}
	// Mutating the source after the snapshot must not leak into it.
	s.Clear()
	r2 := New(10)
	r2.Restore(st)
	if _, wait := r2.LoadFetched(100); !wait {
		t.Error("snapshot aliased the live epoch")
	}
	r.Clear()
	if _, wait := r.LoadFetched(100); wait {
		t.Error("Clear on a restored instance left its entry valid")
	}
}
