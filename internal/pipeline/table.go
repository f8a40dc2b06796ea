package pipeline

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// MatchKind is how one key column of a table matches.
type MatchKind int

// Match kinds. An all-exact table of at most MaxPackedKeys columns
// takes the packed hash store; any other table is a priority-ordered
// (TCAM-style) list.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
	MatchRange
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	}
	return fmt.Sprintf("MatchKind(%d)", int(k))
}

// KeySpec describes one key column.
type KeySpec struct {
	Name  string
	Width int
	Kind  MatchKind
}

// KeyMatch is one entry's matcher for one key column.
type KeyMatch struct {
	// Exact / LPM / Ternary value.
	Value uint64
	// LPM prefix length in bits; Ternary mask; Range high bound.
	Aux uint64
	// Any matches everything (ternary with zero mask, or an explicit
	// wildcard in any column kind).
	Any bool
}

// ExactKey returns a matcher for an exact value.
func ExactKey(v uint64) KeyMatch { return KeyMatch{Value: v} }

// PrefixKey returns an LPM matcher for value/plen.
func PrefixKey(v uint64, plen int) KeyMatch { return KeyMatch{Value: v, Aux: uint64(plen)} }

// RangeKey returns a matcher for lo..hi inclusive.
func RangeKey(lo, hi uint64) KeyMatch { return KeyMatch{Value: lo, Aux: hi} }

// TernaryKey returns a value&mask matcher.
func TernaryKey(v, mask uint64) KeyMatch { return KeyMatch{Value: v, Aux: mask} }

// AnyKey returns a wildcard matcher.
func AnyKey() KeyMatch { return KeyMatch{Any: true} }

// specificity orders LPM entries when priorities tie: longer prefixes win.
func (m KeyMatch) specificity(kind MatchKind) int {
	if m.Any {
		return 0
	}
	if kind == MatchLPM {
		return int(m.Aux)
	}
	return 1
}

// MaxPackedKeys is the widest key (in columns) the allocation-free
// packed lookup path supports; a wider all-exact table keeps its entries
// in the priority list, as a TCAM table does.
const MaxPackedKeys = 4

// PackedKey is a table key of at most MaxPackedKeys words, the form the
// writers and the tests handle. It is not how the per-packet path passes
// a key: Go's register ABI passes an array of more than one element in
// memory, so a PackedKey argument is a 32-byte store and reload per
// call. LookupWords takes the words as four arguments instead.
// Columns beyond the table's key count must be zero.
type PackedKey [MaxPackedKeys]uint64

// Entry is one table entry: matchers for each key column, a priority
// (higher wins; tables with a non-exact column only — an exact table
// keeps none), and the action data written to the table's output fields
// on a hit.
type Entry struct {
	Keys     []KeyMatch
	Priority int
	Action   []Value
	// Name optionally labels the action for P4 output and debugging.
	Name string
}

// tcamEntry is an installed TCAM entry with its non-wildcard columns
// compiled at insert time. The tests stay off Entry, which is also the
// bulk-install form.
type tcamEntry struct {
	Entry
	tests []colTest
}

// colTest is one compiled TCAM column: the column's value, shifted
// right and masked, lies in [lo, hi]. Every kind is one such test, so a
// TCAM walk calls no closure per entry — through which its key would
// escape to the heap — and re-dispatches on no MatchKind per column.
type colTest struct {
	col          int
	shift        uint
	mask, lo, hi uint64
}

// Table is a match-action table. Outputs lists the PHV fields the action
// data is written to, in order; on a miss the Default action data is
// written instead, and the table's hit field (Name + ".$hit") is set to
// 0. The entry store is safe for concurrent control-plane updates.
//
// A table without key columns is a scalar control (§4.1): its one
// action is a per-switch constant until the controller writes it. Every
// mutation of one — Insert, InsertBatch, Delete, Clear, CopyFrom — bumps
// the process-wide ScalarEpoch after the write and before the call
// returns, so an executor that snapshots scalar outputs and re-reads them
// whenever the epoch moved sees every install at its next lookup. Keyed
// tables never bump it.
type Table struct {
	Name    string
	Keys    []KeySpec
	Outputs []FieldRef
	Default []Value

	mu sync.RWMutex
	// packed is the allocation-free fast path: all-exact tables with at
	// most MaxPackedKeys columns. Set once by NewTable; guarded by mu.
	packed *packedStore
	// snap is the published read view of packed, stored atomically and
	// invalidated (stored nil) by every mutation. Readers that find it
	// non-nil look up without taking mu at all — one pointer load, not
	// two RWMutex atomics per packet: the view shares the store's array
	// copy-on-write and a published array is never written (see
	// packedStore); the first reader after a mutation republishes under
	// the write lock, at the cost of one small struct. The table is flat
	// open addressing rather than a Go map: the multiply-xor hash is a
	// fraction of the runtime map's 32-byte memhash + bucket protocol.
	snap atomic.Pointer[packedSnap]
	// entries is every other table's store, kept sorted by priority desc.
	entries []*tcamEntry
	isExact bool
	// version increments on every mutation; read without the lock
	// (atomically).
	version atomic.Uint64
}

// scalarEpoch counts the mutations of keyless tables. It is one counter
// for the process, not one per table, so a reader that caches the outputs
// of many scalar controls compares one word per pass; a write anywhere
// costs the readers one re-read, never a stale value.
var scalarEpoch atomic.Uint64

// ScalarEpoch is the scalar-control epoch: it moves after every mutation
// of a keyless table, anywhere in the process. A reader that loads it
// before reading keyless tables and finds it unchanged later knows none
// of them changed in between.
func ScalarEpoch() uint64 { return scalarEpoch.Load() }

// wrote ends a mutation: a keyless table bumps the scalar epoch.
func (t *Table) wrote() {
	if len(t.Keys) == 0 {
		scalarEpoch.Add(1)
	}
}

// NewTable creates an empty table. All-exact key columns, at most
// MaxPackedKeys of them, select the packed store.
func NewTable(name string, keys []KeySpec, outputs []FieldRef, def []Value) *Table {
	t := &Table{Name: name, Keys: keys, Outputs: outputs, Default: def, isExact: true}
	for _, k := range keys {
		if k.Kind != MatchExact {
			t.isExact = false
		}
	}
	if t.isExact && len(keys) <= MaxPackedKeys {
		t.packed = newPackedStore(keys, len(outputs))
	}
	return t
}

// IsExact reports whether every key column is exact.
func (t *Table) IsExact() bool { return t.isExact }

// HitField is the PHV field recording whether the last apply hit.
func (t *Table) HitField() FieldRef { return FieldRef(t.Name + ".$hit") }

func packEntryKeys(keys []KeyMatch) PackedKey {
	var k PackedKey
	for i, m := range keys {
		k[i] = m.Value
	}
	return k
}

// compileTests compiles an entry's columns. Exact, and a prefix at
// least the column's width, compare the whole value; a shorter prefix
// its top plen bits; ternary the bits under the mask; range lo..hi
// inclusive. A wildcard, or a prefix of length 0, is no test at all.
func (t *Table) compileTests(keys []KeyMatch) []colTest {
	tests := make([]colTest, 0, len(keys))
	for i, m := range keys {
		kind, width, plen := t.Keys[i].Kind, t.Keys[i].Width, int(m.Aux)
		c := colTest{col: i, mask: ^uint64(0), lo: m.Value, hi: m.Value}
		switch {
		case m.Any, kind == MatchLPM && plen <= 0:
			continue
		case kind == MatchExact, kind == MatchLPM && plen >= width:
		case kind == MatchLPM:
			c.shift = uint(width - plen)
			c.lo, c.hi = m.Value>>c.shift, m.Value>>c.shift
		case kind == MatchTernary:
			c.mask, c.lo, c.hi = m.Aux, m.Value&m.Aux, m.Value&m.Aux
		case kind == MatchRange:
			c.hi = m.Aux
		default:
			c.lo, c.hi = 1, 0 // an unknown kind matches nothing
		}
		tests = append(tests, c)
	}
	return tests
}

// hit reports whether every compiled column of e passes on vals.
func (e *tcamEntry) hit(vals []uint64) bool {
	for _, c := range e.tests {
		if v := vals[c.col] >> c.shift & c.mask; v < c.lo || v > c.hi {
			return false
		}
	}
	return true
}

// Insert adds or replaces an entry. For exact tables, replacement is by
// key, whatever the Priority, which an exact table drops; for TCAM tables
// an identical (keys, priority) entry is replaced. A packed exact table
// copies keys and action in and keeps neither slice.
func (t *Table) Insert(e Entry) error { return t.InsertBatch([]Entry{e}) }

// InsertBatch inserts the entries in order under one hold of the lock:
// one version step, one view invalidation and, on a packed exact table,
// room for all of them up front, so a bulk install neither rehashes on
// its way up nor drains the store buffer behind a lock round trip per
// entry. It is all or nothing: every entry is validated before the first
// is written, and an invalid one returns its index and leaves the table,
// its version and its published view as they were.
func (t *Table) InsertBatch(es []Entry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range es {
		if err := t.validate(&es[i]); err != nil {
			return fmt.Errorf("table %s: entry %d: %w", t.Name, i, err)
		}
	}
	t.version.Add(1)
	t.snap.Store(nil)
	if t.packed != nil {
		t.packed.grow(len(es))
	}
	for i := range es {
		t.insertLocked(&es[i])
	}
	t.wrote()
	return nil
}

// Grow makes room for n more entries with at most one rehash, by the
// rule InsertBatch sizes a batch of n with, so a bulk install that
// arrives in chunks lands in the array one batch of all of it would
// have, slot for slot, and moves no record on its way up. It writes no
// entry: it bumps neither Version nor ScalarEpoch, and a published view
// keeps the old array, which stays as it was. It is a no-op on a table
// kept as a priority list (TCAM, or exact and wider than MaxPackedKeys)
// and on a table without key columns.
func (t *Table) Grow(n int) {
	if t.packed == nil || len(t.Keys) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.packed.grow(n)
}

// validate checks an entry's shape; insertLocked installs one that passed.
func (t *Table) validate(e *Entry) error {
	if len(e.Keys) != len(t.Keys) {
		return fmt.Errorf("%d keys, want %d", len(e.Keys), len(t.Keys))
	}
	if len(e.Action) != len(t.Outputs) {
		return fmt.Errorf("%d action values, want %d", len(e.Action), len(t.Outputs))
	}
	if t.isExact {
		for i, k := range e.Keys {
			if k.Any {
				return fmt.Errorf("wildcard key in exact-match column %d", i)
			}
		}
	}
	if i := t.overWide(e.Keys); i >= 0 {
		return fmt.Errorf("key %#x is wider than exact-match column %d's %d bits", e.Keys[i].Value, i, t.Keys[i].Width)
	}
	return nil
}

// overWide is the first exact column whose value has a bit set above the
// column's width, or -1: a key no lookup, which packs columns masked to
// their widths, could reach.
func (t *Table) overWide(keys []KeyMatch) int {
	for i, k := range keys {
		if c := t.Keys[i]; c.Kind == MatchExact && !k.Any && k.Value&^colBits(c.Width) != 0 {
			return i
		}
	}
	return -1
}

func (t *Table) insertLocked(e *Entry) {
	if t.packed != nil {
		t.packed.insert(packEntryKeys(e.Keys), e.Action, e.Name)
		return
	}
	kept := &tcamEntry{*e, t.compileTests(e.Keys)}
	if t.isExact {
		kept.Priority = 0 // a key matches one entry at most: nothing to order
	}
	for i, old := range t.entries {
		if old.Priority == kept.Priority && sameKeys(old.Keys, e.Keys) {
			t.entries[i] = kept
			return
		}
	}
	t.entries = append(t.entries, kept)
	sort.SliceStable(t.entries, func(i, j int) bool {
		if t.entries[i].Priority != t.entries[j].Priority {
			return t.entries[i].Priority > t.entries[j].Priority
		}
		// Tie-break by total specificity so LPM behaves as expected
		// without explicit priorities.
		return t.specificityLocked(&t.entries[i].Entry) > t.specificityLocked(&t.entries[j].Entry)
	})
}

func (t *Table) specificityLocked(e *Entry) int {
	s := 0
	for i, k := range e.Keys {
		s += k.specificity(t.Keys[i].Kind)
	}
	return s
}

func sameKeys(a, b []KeyMatch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Delete removes entries whose keys equal the given matchers; it returns
// the number removed.
func (t *Table) Delete(keys []KeyMatch) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	defer t.wrote()
	t.version.Add(1)
	t.snap.Store(nil)
	if t.packed != nil {
		if len(keys) == len(t.Keys) && t.overWide(keys) < 0 && t.packed.remove(packEntryKeys(keys)) {
			return 1
		}
		return 0
	}
	n := 0
	kept := t.entries[:0]
	for _, e := range t.entries {
		if sameKeys(e.Keys, keys) {
			n++
			continue
		}
		kept = append(kept, e)
	}
	t.entries = kept
	return n
}

// Clear removes all entries.
func (t *Table) Clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version.Add(1)
	t.snap.Store(nil)
	if t.packed != nil {
		*t.packed = *newPackedStore(t.Keys, len(t.Outputs))
	}
	t.entries = nil
	t.wrote()
}

// CopyFrom makes t hold exactly src's entries: a control variable
// replicated to every switch is installed once. On a packed exact table
// it is O(1) — both stores alias one record array and one action
// profile, each marked shared, and whichever is written next clones them
// first (see packedStore); the adopter builds its own interning index
// when an insert first needs one. The
// locks are taken one after the other, never nested. A src of another
// shape is an error that leaves t, its version and its view as they were.
func (t *Table) CopyFrom(src *Table) error {
	if len(src.Outputs) != len(t.Outputs) || !slices.EqualFunc(src.Keys, t.Keys, func(a, b KeySpec) bool {
		return a.Kind == b.Kind && a.Width == b.Width
	}) {
		return fmt.Errorf("table %s: copy from %s: key columns or output count differ", t.Name, src.Name)
	}
	if t.packed == nil {
		es := src.Entries()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.version.Add(1)
		t.entries = nil
		for i := range es {
			t.insertLocked(&es[i])
		}
		t.wrote()
		return nil
	}
	src.mu.Lock()
	src.packed.shared = true
	st := *src.packed
	st.names, st.index = maps.Clone(st.names), nil
	src.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.version.Add(1)
	t.snap.Store(nil)
	*t.packed = st
	t.wrote()
	return nil
}

// Len returns the number of installed entries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.packed != nil {
		return t.packed.count
	}
	return len(t.entries)
}

// Version increments on every mutation. It is read without taking the
// table lock: experiments.FirewallSeed compares it to tell whether its
// donor table changed since it was seeded, and a test can poll it to
// tell whether a control-plane write happened.
func (t *Table) Version() uint64 { return t.version.Load() }

// Lookup matches the key values, one per key column, and returns the
// action data and whether the lookup hit; on a miss — which any other
// number of values is — the default action data is returned.
func (t *Table) Lookup(vals []uint64) ([]Value, bool) {
	if len(vals) != len(t.Keys) {
		return t.Default, false
	}
	if len(vals) > MaxPackedKeys {
		return t.match(vals)
	}
	var k PackedKey
	copy(k[:], vals)
	return t.LookupWords(k[0], k[1], k[2], k[3])
}

// match walks the priority list for the first entry whose compiled
// columns pass on vals; any other number of values than the table has
// columns is a miss.
func (t *Table) match(vals []uint64) ([]Value, bool) {
	if len(vals) != len(t.Keys) {
		return t.Default, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.entries {
		if e.hit(vals) {
			return e.Action, true
		}
	}
	return t.Default, false
}

// packedSnap is the lock-free read view of an exact table: open
// addressing with linear probing at <= 50% load over one array of
// fixed-stride records of 64-bit words — an entry's key columns packed at
// their declared widths into kw words (keyLayout), then, in a table with
// outputs, one word holding the offset of its action tuple in actions,
// the table's action profile: each distinct action tuple once, nout
// Values apiece, so entries with one action share it. A hit loads one
// line of the record array and returns a view of the profile; neither
// array carries pointers, so GC scans nothing of them. An empty slot is
// the all-zero key, and the all-zero key's entry lives in zero instead —
// which is all a table without key columns (a scalar control variable)
// ever holds. Once published, nothing it points to is written.
//
// The fields are ordered by when a lookup needs them, so a key of one
// word reads only the view's first two 64-byte lines, and the view fits
// the 192-byte size class, whose objects start on a line (TestKeyLayout
// pins the size).
type packedSnap struct {
	recs       []uint64
	actions    []Value // the action profile
	slots      uint64  // records in recs, two per entry it was sized for
	kw, stride int32   // key words per record, words per record
	nout       int32   // Values per action tuple
	keyLayout
	zero []Value // the all-zero key's action; nil when it is not installed
}

// keyLayout places a table's key columns in a record's key words:
// column c is its bits at shift[c] within word[c]. A column past the
// table's own has no bits, so whatever a caller leaves in its word is
// ignored. Column 0 always starts word 0. The per-packet path places
// columns 1–3 of a key of one or two words by multiplying by
// scale[w][c-1]: 1 << shift[c] in the column's own word w, 0 in the
// other. A multiply by a register is one instruction, where a shift by
// one must first move the count into CL and clamp it at 64, and it
// needs no branch on the word.
type keyLayout struct {
	bits        [MaxPackedKeys]uint64
	scale       [2][MaxPackedKeys - 1]uint64
	word, shift [MaxPackedKeys]uint8
}

// colBits is the mask of a column of width bits; a width outside 1..64
// is a full word.
func colBits(width int) uint64 {
	if width <= 0 {
		return ^uint64(0)
	}
	return Mask(width, ^uint64(0))
}

// layoutKey packs exact columns of the given widths into as few 64-bit
// words as hold them, no column straddling two: the first assignment of
// columns to one word, then two, and so on, that fits, each word's
// columns from bit 0 up in column order. At most MaxPackedKeys columns
// make at most 4⁴ assignments to try, once per table.
func layoutKey(keys []KeySpec) (l keyLayout, words int) {
	var used [MaxPackedKeys]int // bits taken in each word; a failed place gives them back
	var place func(c int) bool
	place = func(c int) bool {
		if c == len(keys) {
			return true
		}
		m := colBits(keys[c].Width)
		w := bits.Len64(m)
		for j := 0; j < words; j++ {
			if used[j]+w > 64 {
				continue
			}
			l.bits[c], l.word[c], l.shift[c] = m, uint8(j), uint8(used[j])
			used[j] += w
			if place(c + 1) {
				return true
			}
			used[j] -= w
		}
		return false
	}
	for words = 1; !place(0); {
		words++
	}
	for c := 1; c < len(keys); c++ {
		if w := l.word[c]; w < 2 {
			l.scale[w][c-1] = 1 << l.shift[c]
		}
	}
	return l, words
}

// pack is the key words of column values k, each masked to its width.
func (l *keyLayout) pack(k PackedKey) PackedKey {
	var w PackedKey
	for c, m := range l.bits {
		w[l.word[c]] |= k[c] & m << l.shift[c]
	}
	return w
}

// unpack is the column values of key words w.
func (l *keyLayout) unpack(w PackedKey) PackedKey {
	var k PackedKey
	for c, m := range l.bits {
		k[c] = w[l.word[c]] >> l.shift[c] & m
	}
	return k
}

// emptyAction is the action of every entry of a table without outputs.
var emptyAction = []Value{}

// hashWords mixes a record's key words — the first as its two halves —
// with distinct odd multipliers, whose products' top bits (the ones home
// reads) depend on every key bit: dispersion enough at half load. Two
// 32-bit columns sharing word 0 hash as they did with a word each; one
// multiply over the whole word lets the high half reach the top bits
// only through its low bits' carries, and allowed's longest run grows
// from 26 slots to 37.
func hashWords(w0, w1, w2, w3 uint64) uint64 {
	return (w0&0xffffffff)*0x9e3779b97f4a7c15 ^ (w0>>32)*0xbf58476d1ce4e5b9 ^
		w1*0x94d049bb133111eb ^ w2*0x2545f4914f6cdd1d ^ w3*0xd6e8feb86659fd93
}

// hash is hashWords on key words as an array.
func hash(w PackedKey) uint64 { return hashWords(w[0], w[1], w[2], w[3]) }

// home is hash h's slot: h scaled to [0, slots) by a multiply-shift,
// which takes any slot count and costs a multiply, not a divide.
func (s *packedSnap) home(h uint64) uint64 {
	hi, _ := bits.Mul64(h, s.slots)
	return hi
}

// next is the slot after i, wrapping at the end of the array.
func (s *packedSnap) next(i uint64) uint64 {
	if i++; i == s.slots {
		return 0
	}
	return i
}

// rec is slot i's record: kw key words, then the action's offset.
func (s *packedSnap) rec(i uint64) []uint64 {
	o, n := int(i)*int(s.stride), int(s.stride)
	return s.recs[o : o+n : o+n]
}

// key is a record's key words.
func (s *packedSnap) key(r []uint64) PackedKey {
	var w PackedKey
	copy(w[:], r[:s.kw])
	return w
}

// action is a record's action tuple, a view of the profile.
func (s *packedSnap) action(r []uint64) []Value {
	if s.nout == 0 {
		return emptyAction
	}
	o, n := int(r[s.kw]), int(s.nout)
	return s.actions[o : o+n : o+n]
}

// find probes for key words w, which are not all zero: their slot, or
// the empty one ending their run.
func (s *packedSnap) find(w PackedKey) (uint64, bool) {
	for i := s.home(hash(w)); ; i = s.next(i) {
		if kr := s.key(s.rec(i)); kr == w || kr == (PackedKey{}) {
			return i, kr == w
		}
	}
}

// lookup is find for readers, on column values: it is the per-packet
// path. A key of one or two words — every shape the corpus declares, the
// firewall's two 32-bit columns in one word and Aether's 88-bit
// filtering key in two — is packed, hashed and compared in registers,
// the record read in place; a wider one goes through the array form.
// Column 0 always starts word 0.
func (s *packedSnap) lookup(k0, k1, k2, k3 uint64) ([]Value, bool) {
	if s.kw > 2 {
		return s.lookupWide(k0, k1, k2, k3)
	}
	if k0|k1|k2|k3 == 0 {
		return s.zero, s.zero != nil // a keyless table's one answer, before any packing
	}
	w0, w1 := k0&s.bits[0], uint64(0)
	if s.bits[1] != 0 { // more than one column
		m1, m2, m3 := k1&s.bits[1], k2&s.bits[2], k3&s.bits[3]
		w0 |= m1*s.scale[0][0] | m2*s.scale[0][1] | m3*s.scale[0][2]
		if s.kw == 2 {
			w1 = m1*s.scale[1][0] | m2*s.scale[1][1] | m3*s.scale[1][2]
		}
	}
	if w0|w1 == 0 {
		return s.zero, s.zero != nil
	}
	for i := s.home(hashWords(w0, w1, 0, 0)); ; i = s.next(i) {
		o := int(i) * int(s.stride)
		r0, r1 := s.recs[o], uint64(0)
		if s.kw == 2 {
			r1 = s.recs[o+1]
		}
		if r0 == w0 && r1 == w1 {
			if s.nout == 0 {
				return emptyAction, true
			}
			a, n := int(s.recs[o+int(s.kw)]), int(s.nout)
			return s.actions[a : a+n : a+n], true
		}
		if r0|r1 == 0 {
			return nil, false
		}
	}
}

// lookupWide is lookup on a key of more than two words.
func (s *packedSnap) lookupWide(k0, k1, k2, k3 uint64) ([]Value, bool) {
	w := s.pack(PackedKey{k0, k1, k2, k3})
	if w == (PackedKey{}) {
		return s.zero, s.zero != nil
	}
	if i, ok := s.find(w); ok {
		return s.action(s.rec(i)), true
	}
	return nil, false
}

// packedStore is the one store of a packed exact table: the arrays a
// reader probes plus what only the writer needs. It is mutated under
// Table.mu and published copy-on-write: Table.publish hands readers the
// store's own arrays and marks the store shared, and the next mutation
// clones both before its first write (the zero action is replaced, never
// written). The one invariant: an aliased array is never written, be the
// alias a published view or another table's store (CopyFrom marks both
// sides). So a quiescent table holds one copy, as do tables that adopted
// one another; publishing and adopting are O(1), a bulk install never
// copies and a live install pays one memcpy.
type packedStore struct {
	packedSnap
	count  int                  // entries, the all-zero key's included
	shared bool                 // a published view or another store aliases recs and actions
	names  map[PackedKey]string // the cold side map for the rare Entry.Name
	// index finds a tuple's offset in actions by its bytes. It is built
	// when an insert first needs it and dropped by rehash and CopyFrom,
	// which leave it describing a profile the store no longer holds.
	index map[string]int
	last  int // the offset interned last: a bulk install of one action never hashes it
}

func newPackedStore(keys []KeySpec, nout int) *packedStore {
	l, kw := layoutKey(keys)
	stride := kw
	if nout > 0 {
		stride++
	}
	st := &packedStore{packedSnap: packedSnap{kw: int32(kw), stride: int32(stride), nout: int32(nout), keyLayout: l}}
	st.rehash(0)
	return st
}

// unshare gives the store private arrays if a view aliases them.
func (st *packedStore) unshare() {
	if st.shared {
		st.recs, st.actions, st.shared = slices.Clone(st.recs), slices.Clone(st.actions), false
	}
}

// grow makes room for n more entries at <= 50% load; a rehash at least
// doubles the array.
func (st *packedStore) grow(n int) {
	if (st.count+n)*2 > int(st.slots) {
		st.rehash(max(st.count+n, 2*st.count))
	}
}

// rehash moves the records into a fresh array of two slots per entry
// (eight at least), so entries of them fill it to 50%, and their action
// tuples into a fresh profile, each tuple a record points to once and
// none that no record points to. The old arrays are left as they were,
// so a published view stays valid.
func (st *packedStore) rehash(entries int) {
	size := max(8, 2*entries)
	old, oldActs := st.recs, st.actions
	stride, nout := int(st.stride), int(st.nout)
	st.recs, st.actions, st.slots, st.shared = make([]uint64, size*stride), nil, uint64(size), false
	st.index, st.last = nil, 0
	var moved []int // an old tuple's new offset plus one; 0 until it moved
	if nout > 0 {
		moved = make([]int, len(oldActs)/nout)
	}
	for ; len(old) > 0; old = old[stride:] {
		w := st.key(old)
		if w == (PackedKey{}) {
			continue
		}
		i, _ := st.find(w)
		r := st.rec(i)
		copy(r, old[:st.kw])
		if nout > 0 {
			o := int(old[st.kw])
			if t := o / nout; moved[t] == 0 {
				moved[t] = len(st.actions) + 1
				st.actions = append(st.actions, oldActs[o:o+nout]...)
			}
			r[st.kw] = uint64(moved[o/nout] - 1)
		}
	}
}

// intern is action's offset in the profile, appended there if no entry
// holds it yet; the caller has unshared the store. Before it looks a
// tuple up it compacts: once the profile holds 2·count + 8 tuples, at
// least count + 8 of them are dead, and a rehash at the same slot count
// drops them. So overwrites and deletes cannot grow the profile without
// bound, and each rebuild follows count + 8 appends or half the entries'
// deletion.
func (st *packedStore) intern(action []Value) int {
	nout := int(st.nout)
	if nout == 0 {
		return 0
	}
	if n := st.last + nout; n <= len(st.actions) && slices.Equal(st.actions[st.last:n], action) {
		return st.last
	}
	if len(st.actions) >= (2*st.count+8)*nout {
		st.rehash(int(st.slots) / 2)
	}
	var buf [64]byte
	if st.index == nil {
		st.index = make(map[string]int, len(st.actions)/nout)
		for o := 0; o < len(st.actions); o += nout {
			st.index[string(appendTuple(buf[:0], st.actions[o:o+nout]))] = o
		}
	}
	b := appendTuple(buf[:0], action)
	o, ok := st.index[string(b)]
	if !ok {
		o = len(st.actions)
		st.actions = append(st.actions, action...)
		st.index[string(b)] = o
	}
	st.last = o
	return o
}

// appendTuple appends an action tuple's bytes, its key in the index.
func appendTuple(b []byte, t []Value) []byte {
	for _, v := range t {
		b = binary.LittleEndian.AppendUint64(b, uint64(v.W))
		b = binary.LittleEndian.AppendUint64(b, v.V)
	}
	return b
}

// insert adds k or points its record at the new action; action is
// interned, not kept. The caller has made room (grow: InsertBatch for
// its batch, or Grow ahead of a chunked install), so load stays <= 50%.
func (st *packedStore) insert(k PackedKey, action []Value, name string) {
	if w := st.pack(k); w == (PackedKey{}) {
		if st.zero == nil {
			st.count++
		}
		st.zero = append(emptyAction, action...)
	} else {
		st.unshare()
		o := st.intern(action) // first: compacting moves the records
		i, ok := st.find(w)
		r := st.rec(i)
		if !ok {
			copy(r, w[:st.kw])
			st.count++
		}
		if st.nout > 0 {
			r[st.kw] = uint64(o)
		}
	}
	if name != "" {
		if st.names == nil {
			st.names = make(map[PackedKey]string)
		}
		st.names[k] = name
	} else {
		delete(st.names, k)
	}
}

// remove deletes k by backward shift: later records of the probe run
// whose home slot is not past the hole move back into it (no tombstones).
// j-home and j-i are how far j lies past each, wrapped modulo 2⁶⁴, not
// modulo slots; with all three below slots, both wraps order them alike.
// The action tuple stays in the profile until a compaction.
func (st *packedStore) remove(k PackedKey) bool {
	if w := st.pack(k); w == (PackedKey{}) {
		if st.zero == nil {
			return false
		}
		st.zero = nil
	} else {
		i, ok := st.find(w)
		if !ok {
			return false
		}
		st.unshare()
		for j := st.next(i); ; j = st.next(j) {
			wj := st.key(st.rec(j))
			if wj == (PackedKey{}) {
				break
			}
			if home := st.home(hash(wj)); j-home >= j-i {
				copy(st.rec(i), st.rec(j))
				i = j
			}
		}
		clear(st.rec(i))
	}
	st.count--
	delete(st.names, k)
	return true
}

// entries rebuilds Entry values from the records, for Table.Entries.
func (st *packedStore) entries(nkeys int) []Entry {
	out := make([]Entry, 0, st.count)
	add := func(k PackedKey, action []Value) {
		keys := make([]KeyMatch, nkeys)
		for j := range keys {
			keys[j] = ExactKey(k[j])
		}
		out = append(out, Entry{Keys: keys, Action: slices.Clone(action), Name: st.names[k]})
	}
	if st.zero != nil {
		add(PackedKey{}, st.zero)
	}
	for r := st.recs; len(r) > 0; r = r[st.stride:] {
		if w := st.key(r); w != (PackedKey{}) {
			add(st.unpack(w), st.action(r))
		}
	}
	return out
}

// LookupWords is the allocation-free lookup the bytecode VM uses: the
// key words travel as arguments, in registers, down to the probe. An
// exact table answers from its lock-free read view, published here
// first if a mutation invalidated it — so an install is visible at the
// next lookup; any other table walks its entries under the read lock. It
// serves tables of at most MaxPackedKeys columns; wider tables must go
// through Lookup. The words past the table's own columns are ignored,
// and an exact table masks each column to its declared width, which no
// value the VM passes exceeds; Lookup and the VM's runApply zero those
// words all the same.
func (t *Table) LookupWords(k0, k1, k2, k3 uint64) ([]Value, bool) {
	s := t.snap.Load()
	if s == nil {
		if t.packed == nil {
			k := PackedKey{k0, k1, k2, k3}
			return t.match(k[:min(len(t.Keys), MaxPackedKeys)])
		}
		s = t.publish()
	}
	if a, ok := s.lookup(k0, k1, k2, k3); ok {
		return a, true
	}
	return t.Default, false
}

// LookupPacked is LookupWords on a key built as an array.
func (t *Table) LookupPacked(k PackedKey) ([]Value, bool) {
	return t.LookupWords(k[0], k[1], k[2], k[3])
}

// Entries returns a snapshot of the installed entries (TCAM order for
// TCAM tables; unspecified order for exact tables).
func (t *Table) Entries() []Entry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.packed != nil {
		return t.packed.entries(len(t.Keys))
	}
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.Entry)
	}
	return out
}

// Register is a P4-style register array holding Size cells of Width
// bits. Cells are accessed with word atomics rather than a mutex: each
// Read/Write was already individually atomic under the old lock (the
// executors never hold it across a read-modify-write sequence), so
// per-cell atomic load/store preserves the exact observable semantics
// while removing two lock RMWs from every register op on the hot path.
type Register struct {
	Name  string
	Width int
	Size  int

	cells []uint64
}

// NewRegister allocates a zeroed register array.
func NewRegister(name string, width, size int) *Register {
	return &Register{Name: name, Width: width, Size: size, cells: make([]uint64, size)}
}

// Read returns cell i (zero for out-of-range reads, as on hardware).
func (r *Register) Read(i int) uint64 {
	if i < 0 || i >= len(r.cells) {
		return 0
	}
	return atomic.LoadUint64(&r.cells[i])
}

// Write stores v (masked to the register width) into cell i; writes out
// of range are dropped.
func (r *Register) Write(i int, v uint64) {
	if i < 0 || i >= len(r.cells) {
		return
	}
	atomic.StoreUint64(&r.cells[i], Mask(r.Width, v))
}

// publish returns the current read view, sharing the store's array
// into a new one if a mutation invalidated the last.
func (t *Table) publish() *packedSnap {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.snap.Load(); s != nil {
		return s
	}
	t.packed.shared = true
	v := t.packed.packedSnap
	t.snap.Store(&v)
	return &v
}

// WarmSnapshot publishes the lock-free read view after a batch of
// control-plane mutations, so the first packet after an install doesn't
// take the lock to do it. It is O(1), and a no-op for TCAM tables and
// for exact tables whose view is current.
func (t *Table) WarmSnapshot() {
	if t.packed != nil {
		t.publish()
	}
}
