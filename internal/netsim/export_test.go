package netsim

import "unsafe"

// RaceEnabled is raceEnabled, for the external tests.
const RaceEnabled = raceEnabled

// FreeFrameTwice reports whether the frame free list holds one buffer
// twice: a frame released by two owners.
func (s *Simulator) FreeFrameTwice() bool {
	seen := map[*byte]bool{}
	for _, b := range s.frames {
		p := unsafe.SliceData(b)
		if seen[p] {
			return true
		}
		seen[p] = true
	}
	return false
}
