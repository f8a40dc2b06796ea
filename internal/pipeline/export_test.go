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
		k := st.key(st.rec(i))
		if k == (PackedKey{}) {
			continue
		}
		home := st.home(hashPacked(split(k)))
		visits := int((i+st.slots-home)%st.slots) + 1 // a run may wrap past the end
		total, n, longest = total+visits, n+1, max(longest, visits)
	}
	return float64(total) / float64(max(n, 1)), longest
}
