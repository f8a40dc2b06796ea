package pipeline

// ProbeLengths walks a packed exact table's records and returns the mean
// and the largest number of slots a hit visits, from its key's home slot
// to its own, over every entry but the all-zero key (which lives beside
// the array). It counts nothing on the lookup path.
func ProbeLengths(t *Table) (mean float64, longest int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st, total, n := t.packed, 0, 0
	for i := uint64(0); i < st.slots; i++ {
		w := st.key(st.rec(i))
		if w == (PackedKey{}) {
			continue
		}
		home := st.home(hash(w))
		visits := int((i+st.slots-home)%st.slots) + 1 // a run may wrap past the end
		total, n, longest = total+visits, n+1, max(longest, visits)
	}
	return float64(total) / float64(max(n, 1)), longest
}

// ProbeLines is the mean number of 64-byte cache lines a hit's probe run
// spans at the store's own record stride, over the same entries as
// ProbeLengths: the records from the key's home slot to its own, the
// action's tuple aside. It takes the record array to start on a line,
// as an array of a page or more does.
func ProbeLines(t *Table) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st, lines, n := t.packed, 0, 0
	size := uint64(8 * st.stride)
	span := func(from, to uint64) int { // slots from..to inclusive
		return int((to*size+size-1)/64-from*size/64) + 1
	}
	for i := uint64(0); i < st.slots; i++ {
		w := st.key(st.rec(i))
		if w == (PackedKey{}) {
			continue
		}
		if home := st.home(hash(w)); home <= i {
			lines += span(home, i)
		} else {
			lines += span(home, st.slots-1) + span(0, i)
		}
		n++
	}
	return float64(lines) / float64(max(n, 1))
}

// RecordBytes is the size of a packed exact table's record array and
// the slots it holds.
func RecordBytes(t *Table) (bytes, slots int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return 8 * len(t.packed.recs), int(t.packed.slots)
}
