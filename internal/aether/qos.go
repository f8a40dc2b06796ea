package aether

import (
	"sync"

	"repro/internal/netsim"
)

// Counters is the per-UE accounting state the UPF maintains (§5.2 lists
// accounting among the UPF functions the switches implement).
type Counters struct {
	UpPkts, UpBytes     uint64
	DownPkts, DownBytes uint64
}

// meter is a token bucket enforcing a maximum bitrate.
type meter struct {
	rateBps int64
	tokens  float64 // bits
	burst   float64 // bits
	last    netsim.Time
}

func newMeter(rateBps int64, burstBits float64) *meter {
	return &meter{rateBps: rateBps, tokens: burstBits, burst: burstBits}
}

// allow consumes `bits` if available after refilling to now.
func (m *meter) allow(now netsim.Time, bits float64) bool {
	if m.rateBps <= 0 {
		return true
	}
	elapsed := (now - m.last).Seconds()
	m.last = now
	m.tokens += elapsed * float64(m.rateBps)
	if m.tokens > m.burst {
		m.tokens = m.burst
	}
	if m.tokens < bits {
		return false
	}
	m.tokens -= bits
	return true
}

// Accounting tracks per-UE traffic and enforces per-slice maximum
// bitrates ("give them bandwidth guarantees", §5.2).
type Accounting struct {
	mu sync.Mutex
	// byUE maps UE id -> counters.
	byUE map[uint64]*Counters
	// sliceMBR maps slice id -> maximum bitrate (0 = unlimited).
	sliceMBR map[uint64]int64
	// meters maps UE id -> token bucket (created on first packet).
	meters map[uint64]*meter
	// QoSDrops counts packets dropped by metering.
	QoSDrops uint64
}

// NewAccounting returns empty accounting state.
func NewAccounting() *Accounting {
	return &Accounting{
		byUE:     map[uint64]*Counters{},
		sliceMBR: map[uint64]int64{},
		meters:   map[uint64]*meter{},
	}
}

// record accounts one packet and applies the slice meter; it reports
// whether the packet conforms (false = drop by QoS).
func (a *Accounting) record(now netsim.Time, ueID, sliceID uint64, bytes int, uplink bool) bool {
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
	rate := a.sliceMBR[sliceID]
	if rate <= 0 {
		return true
	}
	m, ok := a.meters[ueID]
	if !ok {
		// Allow a burst of one eighth of a second at the slice rate.
		m = newMeter(rate, float64(rate)/8)
		m.last = now
		a.meters[ueID] = m
	}
	if !m.allow(now, float64(bytes)*8) {
		a.QoSDrops++
		return false
	}
	return true
}
