package memdep

// State is an opaque snapshot of a StoreSets predictor (SSIT assignments,
// LFST tokens and epochs, the current epoch, allocation counter). Restore
// reinstates it in place on an identically sized instance.
type State struct {
	ssit     []uint32
	lfst     []lfstEntry
	nextSSID uint32
	epoch    uint32
}

// Snapshot deep-copies the predictor state.
func (s *StoreSets) Snapshot() *State {
	return &State{
		ssit:     append([]uint32(nil), s.ssit...),
		lfst:     append([]lfstEntry(nil), s.lfst...),
		nextSSID: s.nextSSID,
		epoch:    s.epoch,
	}
}

// Restore reinstates a snapshot taken from an identically sized StoreSets.
func (s *StoreSets) Restore(st *State) {
	copy(s.ssit, st.ssit)
	copy(s.lfst, st.lfst)
	s.nextSSID = st.nextSSID
	s.epoch = st.epoch
}
