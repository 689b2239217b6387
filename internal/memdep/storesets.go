// Package memdep implements the Store Sets memory dependence predictor of
// Chrysos and Emer (Table 2: 1K-SSID/LFST). Loads that violated ordering
// against a store in the past are placed in that store's set; a load whose
// set contains an in-flight store waits for it instead of speculating.
package memdep

// Invalid marks a PC with no store set.
const Invalid = ^uint32(0)

// StoreSets holds the Store Set ID Table (SSIT, indexed by instruction PC)
// and the Last Fetched Store Table (LFST, indexed by SSID). The LFST maps to
// an opaque token the pipeline chooses (the store's ROB sequence number).
type StoreSets struct {
	ssit     []uint32
	ssitMask uint64
	lfst     []lfstEntry
	nextSSID uint32

	// epoch makes Clear O(1): an LFST entry is valid iff its epoch equals
	// the current one. Clear advances the epoch; only when the counter
	// wraps does it walk the table once to reset every entry.
	epoch uint32
}

// lfstEntry is one LFST slot. Epoch 0 is never current, so storing it
// invalidates a single entry.
type lfstEntry struct {
	token uint64
	epoch uint32
}

// New builds store sets with 2^logSSIT SSIT entries and as many possible
// store sets (the paper's 1K/1K).
func New(logSSIT int) *StoreSets {
	n := 1 << logSSIT
	s := &StoreSets{
		ssit:     make([]uint32, n),
		ssitMask: uint64(n - 1),
		lfst:     make([]lfstEntry, n),
		epoch:    1,
	}
	for i := range s.ssit {
		s.ssit[i] = Invalid
	}
	return s
}

func (s *StoreSets) idx(pc uint64) uint64 {
	z := pc * 0x9E3779B97F4A7C15
	return (z >> 32) & s.ssitMask
}

// SSID returns the store set of pc, or Invalid.
func (s *StoreSets) SSID(pc uint64) uint32 { return s.ssit[s.idx(pc)] }

// StoreFetched registers an in-flight store: if the store belongs to a set,
// it becomes that set's last fetched store and the previous one (if any) is
// returned so the pipeline can chain store-store ordering.
func (s *StoreSets) StoreFetched(pc uint64, token uint64) (prev uint64, hasPrev bool) {
	ssid := s.SSID(pc)
	if ssid == Invalid {
		return 0, false
	}
	e := &s.lfst[ssid&uint32(s.ssitMask)]
	prev, hasPrev = e.token, e.epoch == s.epoch
	e.token = token
	e.epoch = s.epoch
	return prev, hasPrev
}

// LoadFetched returns the token of the store the load at pc must wait for,
// if its store set has an in-flight store.
func (s *StoreSets) LoadFetched(pc uint64) (token uint64, wait bool) {
	ssid := s.SSID(pc)
	if ssid == Invalid {
		return 0, false
	}
	e := &s.lfst[ssid&uint32(s.ssitMask)]
	return e.token, e.epoch == s.epoch
}

// StoreRetired clears the LFST entry if this store is still its set's last
// fetched store.
func (s *StoreSets) StoreRetired(pc uint64, token uint64) {
	ssid := s.SSID(pc)
	if ssid == Invalid {
		return
	}
	e := &s.lfst[ssid&uint32(s.ssitMask)]
	if e.epoch == s.epoch && e.token == token {
		e.epoch = 0
	}
}

// Violation trains the tables after a memory-order violation between a load
// and an older store, using the Chrysos-Emer merge rules: if neither has a
// set, create one; if one has, the other joins it; if both have, the sets
// merge by adopting the smaller SSID.
func (s *StoreSets) Violation(loadPC, storePC uint64) {
	li, si := s.idx(loadPC), s.idx(storePC)
	ls, ss := s.ssit[li], s.ssit[si]
	switch {
	case ls == Invalid && ss == Invalid:
		id := s.allocSSID()
		s.ssit[li], s.ssit[si] = id, id
	case ls == Invalid:
		s.ssit[li] = ss
	case ss == Invalid:
		s.ssit[si] = ls
	case ls < ss:
		s.ssit[si] = ls
	default:
		s.ssit[li] = ss
	}
}

func (s *StoreSets) allocSSID() uint32 {
	id := s.nextSSID
	s.nextSSID = (s.nextSSID + 1) & uint32(s.ssitMask)
	return id
}

// Clear invalidates all LFST entries (used at pipeline squash: no stores
// remain in flight). It is O(1) except once every 2^32-1 calls, when the
// epoch wraps and every entry is reset.
func (s *StoreSets) Clear() {
	if s.epoch++; s.epoch == 0 {
		for i := range s.lfst {
			s.lfst[i].epoch = 0
		}
		s.epoch = 1
	}
}
