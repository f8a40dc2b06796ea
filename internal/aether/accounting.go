package aether

import "sync"

// Counters is the per-UE accounting state the UPF maintains (§5.2 lists
// accounting among the UPF functions the switches implement).
type Counters struct {
	UpPkts, UpBytes     uint64
	DownPkts, DownBytes uint64
}

// Accounting tracks per-UE traffic.
type Accounting struct {
	mu sync.Mutex
	// byUE maps UE id -> counters.
	byUE map[uint64]*Counters
}

// NewAccounting returns empty accounting state.
func NewAccounting() *Accounting {
	return &Accounting{byUE: map[uint64]*Counters{}}
}

// record accounts one packet.
func (a *Accounting) record(ueID uint64, bytes int, uplink bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.byUE[ueID]
	if !ok {
		c = &Counters{}
		a.byUE[ueID] = c
	}
	if uplink {
		c.UpPkts++
		c.UpBytes += uint64(bytes)
	} else {
		c.DownPkts++
		c.DownBytes += uint64(bytes)
	}
}
