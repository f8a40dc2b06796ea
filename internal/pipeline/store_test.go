package pipeline

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// modelShapes are the key column widths the model test runs: none to
// four full words, then narrow columns that share one word (2×32,
// 3×16+8), a pair that needs a second (64+1) and five columns in two
// words (difftest's wideDictSrc key). A shape is named by its index, so
// shapes 0–4 are also column counts.
var modelShapes = [][]int{{}, {64}, {64, 64}, {64, 64, 64}, {64, 64, 64, 64}, {32, 32}, {16, 16, 16, 8}, {64, 1}, {8, 16, 32, 8, 16}}

// colKey is a model key's column values, one a word, at most five.
type colKey [5]uint64

// packKey is the words of column values vals in a table of layout: what
// Lookup packs and what an apply site hands LookupWords.
func packKey(layout []KeyCol, vals []uint64) PackedKey {
	var w PackedKey
	for c, p := range layout {
		w[p.Word] |= vals[c] & p.Mask << p.Shift
	}
	return w
}

// packed is a key of at most four columns in LookupPacked's form.
func (k colKey) packed() PackedKey { return PackedKey(k[:4]) }

// shapeKeys is a shape's exact key columns.
func shapeKeys(shape int) []KeySpec {
	keys := make([]KeySpec, len(modelShapes[shape]))
	for i, w := range modelShapes[shape] {
		keys[i] = KeySpec{Name: fmt.Sprintf("k%d", i), Width: w, Kind: MatchExact}
	}
	return keys
}

// modelPool is the key pool of the model test: collidingKeys, plus what
// a store that marks an empty slot by its key can get wrong — the
// all-zero key itself (index modelZero) and one key per column with only
// that column set, so a live record may start with a zero word, or a
// zero column.
func modelPool(shape int) []colKey {
	pool := collidingKeys(shape, modelZero)
	widths := modelShapes[shape]
	if len(widths) == 0 {
		return pool
	}
	pool = append(pool, colKey{})
	for c, w := range widths {
		var k colKey
		k[c] = min(uint64(c+1), colBits(w))
		pool = append(pool, k)
	}
	return pool
}

const modelZero = 72

// collidingKeys returns n distinct keys of a shape, every column within
// its width, built to collide: three in four home in the last slot of
// every table of up to 1 024 slots (top ten hash bits all ones, which
// home scales to at least slots - 1), so their probe run wraps around to
// slot 0; the rest home in slot 0 (top ten bits zero) and sit in the
// middle of that run. A keyless table has the one empty key.
func collidingKeys(shape, n int) []colKey {
	if len(modelShapes[shape]) == 0 {
		return []colKey{{}}
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if keys := pools[shape]; len(keys) >= n {
		return keys[:n:n]
	}
	layout, _ := KeyLayout(shapeKeys(shape))
	keys, seen := make([]colKey, 0, n), map[colKey]bool{{}: true}
	for v := uint64(1); len(keys) < n; v++ {
		var k colKey
		for c, w := range modelShapes[shape] {
			k[c] = (v * uint64(c+1) * 0x9e3779b97f4a7c15 >> (8 * c)) & colBits(w)
		}
		want := uint64(0x3ff)
		if len(keys)%4 == 3 {
			want = 0
		}
		if !seen[k] && hash(packKey(layout, k[:]))>>54 == want {
			keys, seen[k] = append(keys, k), true
		}
	}
	pools[shape] = keys
	return keys
}

// pools memoizes collidingKeys per shape: finding the keys is a
// thousand hashes each, and the fuzzer asks once per input.
var (
	poolMu sync.Mutex
	pools  = make([][]colKey, len(modelShapes))
)

// tableModel is the plain-map oracle the store is checked against.
type tableModel struct {
	acts  map[colKey][]Value
	names map[colKey]string
}

func entryKey(e Entry) colKey {
	var k colKey
	for c, m := range e.Keys {
		k[c] = m.Value
	}
	return k
}

// checkTable compares every observable of tbl with the model: the three
// lookups for every key of the pool, Len, and the sorted Entries. A
// lookup publishes the view, which marks the array shared; without
// lookups the table is left as the op left it, so the next write meets
// whatever marks the op itself set. Every key is looked up twice by
// LookupWords, on its packed words: first from the no-view state a
// mutation leaves (the view dropped again before each key), then from
// the view that lookup published. LookupPacked takes a key of at most
// four columns and misses on a wider table. On a table with a column
// narrower than a word, the key is looked up once more with every bit
// above each column's width set: Lookup masks each column to its width
// as it packs, so the stray bits reach neither the column nor its
// neighbour in the word.
func checkTable(t *testing.T, step string, tbl *Table, ncols int, pool []colKey, m *tableModel, lookups bool) {
	t.Helper()
	if !lookups {
		pool = nil
	}
	for _, k := range pool {
		want, hit := m.acts[k]
		if !hit {
			want = tbl.Default
		}
		tbl.snap.Store(nil)
		w := packKey(tbl.layout, k[:])
		for _, view := range []string{"no view", "view"} {
			if got, ok := tbl.LookupWords(w[0], w[1], w[2], w[3]); ok != hit || !slices.Equal(got, want) {
				t.Fatalf("%s: LookupWords(%#x), key %v, from %s = %v, %t; want %v, %t", step, w, k[:ncols], view, got, ok, want, hit)
			}
		}
		if got, ok := tbl.LookupPacked(k.packed()); ncols <= 4 && (ok != hit || !slices.Equal(got, want)) || ncols > 4 && ok {
			t.Fatalf("%s: LookupPacked(%v) = %v, %t; want %v, %t", step, k[:ncols], got, ok, want, hit)
		}
		if got, ok := tbl.Lookup(k[:ncols]); ok != hit || !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup(%v) = %v, %t; want %v, %t", step, k[:ncols], got, ok, want, hit)
		}
		stray, narrow := strayBits(tbl, k)
		if got, ok := tbl.Lookup(stray[:ncols]); narrow && (ok != hit || !slices.Equal(got, want)) {
			t.Fatalf("%s: Lookup(%#x), key %v with the bits above each width set, = %v, %t; want %v, %t", step, stray[:ncols], k[:ncols], got, ok, want, hit)
		}
	}
	if tbl.Len() != len(m.acts) {
		t.Fatalf("%s: Len = %d, want %d", step, tbl.Len(), len(m.acts))
	}
	entries := tbl.Entries()
	slices.SortFunc(entries, func(a, b Entry) int {
		ka, kb := entryKey(a), entryKey(b)
		return slices.Compare(ka[:], kb[:])
	})
	if len(entries) != len(m.acts) {
		t.Fatalf("%s: %d entries, want %d", step, len(entries), len(m.acts))
	}
	for i, e := range entries {
		k := entryKey(e)
		if i > 0 && entryKey(entries[i-1]) == k {
			t.Fatalf("%s: Entries lists key %v twice", step, k[:ncols])
		}
		want, ok := m.acts[k]
		if !ok || len(e.Keys) != ncols || !slices.Equal(e.Action, want) || e.Name != m.names[k] {
			t.Fatalf("%s: entry %+v, want action %v name %q (present %t)", step, e, want, m.names[k], ok)
		}
	}
}

// strayBits is key k with every bit above each of tbl's column widths set,
// and whether any column of tbl is narrower than a word.
func strayBits(tbl *Table, k colKey) (colKey, bool) {
	narrow := false
	for c, col := range tbl.Keys {
		k[c] |= ^colBits(col.Width)
		narrow = narrow || col.Width < 64
	}
	return k, narrow
}

// prioTwin is a table of tbl's exact columns and one more, a one-bit
// ternary column every entry leaves a wildcard: the same entries on the
// priority list, which must answer every lookup as the packed store
// does. It is nil when the shape leaves the key words no room for the
// extra column.
func prioTwin(tbl *Table) *Table {
	keys := append(slices.Clip(tbl.Keys), KeySpec{Name: "any", Width: 1, Kind: MatchTernary})
	if _, err := KeyLayout(keys); err != nil {
		return nil
	}
	return NewTable("prio", keys, tbl.Outputs, tbl.Default)
}

// prioEntry is e on the twin: its own copies of the keys, plus the
// wildcard, and of the action, which the priority list keeps.
func prioEntry(e Entry) Entry {
	return Entry{Keys: append(slices.Clone(e.Keys), AnyKey()), Action: slices.Clone(e.Action)}
}

// checkAgree holds the twin to the packed table on every key of the pool,
// as it is and with the bits above each column's width set: a column is
// its declared bits on both stores.
func checkAgree(t *testing.T, step string, tbl, prio *Table, ncols int, pool []colKey) {
	t.Helper()
	for _, k := range pool {
		stray, _ := strayBits(tbl, k)
		for _, key := range []colKey{k, stray} {
			want, hit := tbl.Lookup(key[:ncols])
			if got, ok := prio.Lookup(append(slices.Clone(key[:ncols]), key[0]|2)); ok != hit || !slices.Equal(got, want) {
				t.Fatalf("%s: key %#x: the priority list answers %v, %t; the packed store %v, %t", step, key[:ncols], got, ok, want, hit)
			}
		}
	}
}

// runTableOps drives two tables of one shape, each with its own model,
// through the op stream and checks both against their models after every
// step, so a write that reaches the table it was not aimed at shows. A
// third table, table 0's twin on the priority list (prioTwin), takes
// every write table 0 does and must answer every lookup alike.
// data[0] picks the key columns (modelShapes: 0–4 columns of 64 bits, or
// narrow ones), data[1] the action length (0–2) and, from 3 on, a small
// action alphabet — three tuples, so entries share them in the profile —
// where the rest draw from 256, so overwrites leave dead tuples for
// compaction to drop; each op is three bytes: kind (low nibble; bit 4 picks the table, bit 5
// checks the step without lookups), key index, value. One op has the
// table adopt the other's entries (CopyFrom), another make room for up
// to 63 more (Grow), which must leave its Version alone. Outputs are 64
// bits and action values are raw — any width, any bits — so a store that
// loses a bit of V, or keeps a value at another width than its output's,
// shows.
func runTableOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	shape, nout, alphabet := int(data[0])%len(modelShapes), int(data[1]%3), uint64(256)
	if data[1]/3%2 == 1 {
		alphabet = 3
	}
	keys, ncols := shapeKeys(shape), len(modelShapes[shape])
	outs, def := make([]FieldRef, nout), make([]Value, nout)
	for i := range outs {
		outs[i], def[i] = FieldRef(fmt.Sprintf("o%d", i)), B(64, 0xdead)
	}
	tbls := [2]*Table{NewTable("t0", keys, outs, def), NewTable("t1", keys, outs, def)}
	prio := prioTwin(tbls[0])
	pool := modelPool(shape)
	action := func(val uint64, o int) Value {
		val %= alphabet
		return Value{W: int(val % 65), V: val*0x0101010101010101 + uint64(o)}
	}
	stored := func(action []Value) []Value { // as the table answers: at the outputs' width
		out := slices.Clone(action)
		for o := range out {
			out[o].W = 64
		}
		return out
	}
	var ms [2]*tableModel
	for i := range ms {
		ms[i] = &tableModel{acts: map[colKey][]Value{}, names: map[colKey]string{}}
	}
	// One Entry refilled for every insert, as a bulk installer would.
	e := Entry{Keys: make([]KeyMatch, ncols), Action: make([]Value, nout)}
	versions := [2]uint64{tbls[0].Version(), tbls[1].Version()}
	for pc := 2; pc+2 < len(data); pc += 3 {
		kind, k, val := data[pc]%16, pool[int(data[pc+1])%len(pool)], uint64(data[pc+2])
		target := int(data[pc] >> 4 & 1)
		tbl, m := tbls[target], ms[target]
		mirror := target == 0 && prio != nil
		step := fmt.Sprintf("op %d (table %d, kind %d, key %v, val %d)", (pc-2)/3, target, kind, k[:ncols], val)
		mutated := true
		switch {
		case kind < 9: // insert or replace; kind 8 names the entry
			for c := range e.Keys {
				e.Keys[c] = ExactKey(k[c])
			}
			for o := range e.Action {
				e.Action[o] = action(val, o)
			}
			e.Name = ""
			if kind == 8 {
				e.Name = fmt.Sprintf("a%d", val)
			}
			if err := tbl.Insert(e); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if mirror {
				if err := prio.Insert(prioEntry(e)); err != nil {
					t.Fatalf("%s: priority list: %v", step, err)
				}
			}
			m.acts[k] = stored(e.Action)
			delete(m.names, k)
			if e.Name != "" {
				m.names[k] = e.Name
			}
		case kind < 13:
			_, had := m.acts[k]
			dk := make([]KeyMatch, ncols)
			for c := range dk {
				dk[c] = ExactKey(k[c])
			}
			if n := tbl.Delete(dk); (n == 1) != had {
				t.Fatalf("%s: Delete = %d, entry present %t", step, n, had)
			}
			if mirror && (prio.Delete(append(dk, AnyKey())) == 1) != had {
				t.Fatalf("%s: the priority list's Delete disagrees, entry present %t", step, had)
			}
			delete(m.acts, k)
			delete(m.names, k)
		case kind == 13: // a batch of up to 15 entries from consecutive pool keys, the last repeating the first
			batch := make([]Entry, int(val)%16)
			for b := range batch {
				bk := pool[(int(data[pc+1])+b%max(len(batch)-1, 1))%len(pool)]
				batch[b] = Entry{Keys: make([]KeyMatch, ncols), Action: make([]Value, nout)}
				for c := range batch[b].Keys {
					batch[b].Keys[c] = ExactKey(bk[c])
				}
				for o := range batch[b].Action {
					batch[b].Action[o] = action(val, b+o)
				}
				m.acts[bk] = stored(batch[b].Action)
				delete(m.names, bk)
			}
			if err := tbl.InsertBatch(batch); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if mirror {
				twin := make([]Entry, len(batch))
				for b := range batch {
					twin[b] = prioEntry(batch[b])
				}
				if err := prio.InsertBatch(twin); err != nil {
					t.Fatalf("%s: priority list: %v", step, err)
				}
			}
		case kind == 14:
			tbl.WarmSnapshot()
			mutated = false
		case val < 32: // Clear, one time in eight
			tbl.Clear()
			if mirror {
				prio.Clear()
			}
			clear(m.acts)
			clear(m.names)
		case val < 96: // make room, one time in four
			tbl.Grow(int(val) - 32)
			if tbl.Version() != versions[target] {
				t.Fatalf("%s: Grow moved Version %d → %d", step, versions[target], tbl.Version())
			}
			mutated = false
		case val >= 224: // adopt the other table's entries, one time in eight
			if err := tbl.CopyFrom(tbls[1-target]); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			m.acts, m.names = maps.Clone(ms[1-target].acts), maps.Clone(ms[1-target].names)
			if mirror { // the twin takes the adopted entries one by one
				prio.Clear()
				for _, e := range tbl.Entries() {
					if err := prio.Insert(prioEntry(e)); err != nil {
						t.Fatalf("%s: priority list: %v", step, err)
					}
				}
			}
		default:
			mutated = false
		}
		// The table aimed at steps its version; the other one is as it was.
		if v := tbl.Version(); v < versions[target] || mutated && v == versions[target] {
			t.Fatalf("%s: Version %d after %d", step, v, versions[target])
		} else if other := tbls[1-target].Version(); other != versions[1-target] {
			t.Fatalf("%s: the other table's Version went %d → %d", step, versions[1-target], other)
		} else {
			versions[target] = v
		}
		for i := range tbls {
			checkTable(t, fmt.Sprintf("%s, table %d", step, i), tbls[i], ncols, pool, ms[i], data[pc]>>5&1 == 0)
		}
		if prio != nil && data[pc]>>5&1 == 0 {
			checkAgree(t, step+", table 0", tbls[0], prio, ncols, pool)
		}
	}
}

// TestTableModel runs long random op streams for every shape of key
// columns, action length and alphabet, with a key pool small and
// colliding enough that backward-shift deletion crosses the wrap-around
// and growth lands mid-chain. Every
// shape opens with the all-zero key inserted, replaced, deleted and
// re-inserted by name, then a batch across it that grows the table; then
// the second table adopts the first — zero key, named entry and all —
// the donor is written, the adopter is written, and the first table
// adopts the second back.
func TestTableModel(t *testing.T) {
	prologue := []byte{0, modelZero, 1, 0, modelZero, 2, 9, modelZero, 0, 9, modelZero, 0, 8, modelZero, 3, 13, modelZero - 7, 15,
		0x3f, 0, 0xff, 0x20, 1, 4, 0x10, 2, 5, 0x19, modelZero, 0, 0x2f, 0, 0xff, 0x30, 3, 6, 9, 3, 0}
	for shape, widths := range modelShapes {
		for mode := 0; mode < 6; mode++ {
			nout, small := mode%3, mode >= 3
			if small && (nout == 0 || shape < 4) {
				continue // nothing to share, or a shape the narrow ones cover
			}
			rng := rand.New(rand.NewSource(int64(17*shape + mode)))
			data := make([]byte, 2+3*1500)
			rng.Read(data)
			data[0], data[1] = byte(shape), byte(mode)
			copy(data[2:], prologue)
			name := fmt.Sprintf("cols%d_out%d", len(widths), nout)
			if shape > 4 {
				name = fmt.Sprintf("widths%s_out%d", strings.ReplaceAll(strings.Trim(fmt.Sprint(widths), "[]"), " ", "x"), nout)
			}
			if small {
				name += "_alphabet3"
			}
			t.Run(name, func(t *testing.T) { runTableOps(t, data) })
		}
	}
}

// FuzzTableOps is TestTableModel's driver under the fuzzer.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 7, 0, 0, 9, 9, 0, 0})
	f.Add([]byte{0, 2, 0, 0, 1, 9, 0, 0, 8, 0, 5, 15, 0, 1})
	f.Fuzz(runTableOps)
}

// TestWrapAroundDelete pins the case the model test is built to reach:
// a probe run that starts in the last slot and continues at slot 0
// loses its first entry, and everything behind the hole stays findable —
// at the 8 slots a fresh table starts with and at 10 and 12, slot
// counts that are not a power of two.
func TestWrapAroundDelete(t *testing.T) {
	for _, room := range []int{0, 5, 6} {
		tbl := NewTable("t", []KeySpec{{Width: 64, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(8, 0)})
		tbl.Grow(room)
		pool := collidingKeys(1, 4) // three home in the last slot, one in slot 0
		for i, k := range pool {
			if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(8, uint64(i+1))}}); err != nil {
				t.Fatal(err)
			}
		}
		st := tbl.packed
		if want := uint64(max(8, 2*room)); st.slots != want {
			t.Fatalf("room for %d: %d slots, want %d", room, st.slots, want)
		}
		last := st.slots - 1
		if st.key(st.rec(last)) != pool[0].packed() || st.key(st.rec(0)) == (PackedKey{}) || st.key(st.rec(1)) == (PackedKey{}) {
			t.Fatalf("%d slots: the run does not wrap: records %v", st.slots, st.recs)
		}
		if n := tbl.Delete([]KeyMatch{ExactKey(pool[0][0])}); n != 1 {
			t.Fatalf("%d slots: Delete = %d", st.slots, n)
		}
		for i, k := range pool {
			if a, hit := tbl.LookupPacked(k.packed()); hit != (i > 0) || hit && a[0].V != uint64(i+1) {
				t.Fatalf("%d slots: key %d after the delete: %v, %t", st.slots, i, a, hit)
			}
		}
		if st.key(st.rec(last)) != pool[1].packed() {
			t.Fatalf("%d slots: the second entry did not shift back across the wrap-around: records %v", st.slots, st.recs)
		}
	}
}

// TestInsertCopies: the table answers what was inserted even after the
// caller reuses the entry's slices, and Entries hands out copies.
func TestInsertCopies(t *testing.T) {
	tbl := NewTable("t", []KeySpec{{Width: 32, Kind: MatchExact}, {Width: 32, Kind: MatchExact}},
		[]FieldRef{"a", "b"}, []Value{B(8, 0), B(8, 0)})
	e := Entry{Keys: []KeyMatch{ExactKey(1), ExactKey(2)}, Action: []Value{B(8, 10), B(8, 20)}}
	if err := tbl.Insert(e); err != nil {
		t.Fatal(err)
	}
	e.Keys[0], e.Keys[1] = ExactKey(3), ExactKey(4)
	e.Action[0], e.Action[1] = B(8, 30), B(8, 40)
	if a, hit := tbl.Lookup([]uint64{1, 2}); !hit || a[0].V != 10 || a[1].V != 20 {
		t.Fatalf("Lookup(1,2) = %v, %t after the caller rewrote its slices", a, hit)
	}
	if _, hit := tbl.Lookup([]uint64{3, 4}); hit {
		t.Fatal("the caller's later key is in the table")
	}
	got := tbl.Entries()
	got[0].Action[0] = B(8, 99)
	got[0].Keys[0] = ExactKey(99)
	if a, hit := tbl.Lookup([]uint64{1, 2}); !hit || a[0].V != 10 {
		t.Fatalf("writing through Entries() changed the table: %v, %t", a, hit)
	}
}

// TestCopyOnWriteReaders is the store's concurrency audit (run it under
// -race): readers spin on LookupPacked for keys that are never removed
// while a writer inserts, replaces and deletes other keys, grows the
// table with batches and republishes the view at random. Every read
// must hit with the action the key was installed with, and a view once
// published — its record array and its zero-key action — must never
// change under a reader that still holds it. A twin table adopts the
// first, or is adopted by it, at random, with a reader of its own: a
// view held across an adoption, and across the next write on either
// side of it, stays what it was too.
func TestCopyOnWriteReaders(t *testing.T) {
	tbl := NewTable("t", []KeySpec{{Width: 64, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(64, 0)})
	twin := NewTable("twin", tbl.Keys, tbl.Outputs, tbl.Default)
	pool := collidingKeys(1, 96)
	stable, churn := pool[:32], append(pool[32:], colKey{}) // the all-zero key churns too
	for _, k := range stable {
		if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, k[0])}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := twin.CopyFrom(tbl); err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		done atomic.Bool
	)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			tbl := tbl
			if r == 2 {
				tbl = twin
			}
			for i := r; !done.Load(); i++ {
				k := stable[i%len(stable)]
				if a, hit := tbl.LookupPacked(k.packed()); !hit || a[0].V != k[0] {
					t.Errorf("reader %d: LookupPacked(%d) = %v, %t", r, k[0], a, hit)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000 && !t.Failed(); i++ {
		k := churn[rng.Intn(len(churn))]
		switch rng.Intn(9) {
		case 8:
			// Either table adopts the other. The adopter's old view, and
			// the view of the one array both hold afterwards, must stay
			// what they were through a write on each side.
			dst, src := twin, tbl
			if i%2 == 0 {
				dst, src = tbl, twin
			}
			old := dst.publish()
			oldRecs, oldActs, oldZero := slices.Clone(old.recs), slices.Clone(old.actions), slices.Clone(old.zero)
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			view := dst.publish()
			if &view.recs[0] != &src.packed.recs[0] {
				t.Fatal("the adopter holds a copy of the donor's array, not the array")
			}
			before, acts, zero := slices.Clone(view.recs), slices.Clone(view.actions), slices.Clone(view.zero)
			_ = src.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, uint64(i))}})
			_ = dst.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, ^uint64(i))}})
			src.Delete([]KeyMatch{ExactKey(k[0])})
			_ = dst.Insert(Entry{Keys: []KeyMatch{ExactKey(0)}, Action: []Value{B(64, uint64(i))}})
			if !slices.Equal(view.recs, before) || !slices.Equal(view.actions, acts) || !slices.Equal(view.zero, zero) ||
				!slices.Equal(old.recs, oldRecs) || !slices.Equal(old.actions, oldActs) || !slices.Equal(old.zero, oldZero) {
				t.Fatal("a view held across an adoption was written")
			}
		case 0, 1, 2, 3:
			if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, uint64(i))}}); err != nil {
				t.Fatal(err)
			}
		case 4, 5:
			tbl.Delete([]KeyMatch{ExactKey(k[0])})
		case 6:
			tbl.WarmSnapshot()
		case 7:
			// A held view must stay what it was through the next writes.
			view := tbl.publish()
			before, acts, zero := slices.Clone(view.recs), slices.Clone(view.actions), slices.Clone(view.zero)
			tbl.Delete([]KeyMatch{ExactKey(k[0])})
			_ = tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, ^uint64(i))}})
			_ = tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(0)}, Action: []Value{B(64, uint64(i))}})
			if i%2 == 0 {
				tbl.Delete([]KeyMatch{ExactKey(0)})
			}
			grow := make([]Entry, rng.Intn(64))
			for g := range grow {
				grow[g] = Entry{Keys: []KeyMatch{ExactKey(churn[g%len(churn)][0])}, Action: []Value{B(64, uint64(g))}}
			}
			_ = tbl.InsertBatch(grow)
			if !slices.Equal(view.recs, before) || !slices.Equal(view.actions, acts) || !slices.Equal(view.zero, zero) {
				t.Fatal("a published record array, action profile or zero-key action was written")
			}
		}
	}
	done.Store(true)
	wg.Wait()
}

// TestQuiescentTableHoldsOneCopy pins the copy-on-write economics: a
// batch install on a fresh table sizes it once, publishing shares the
// store's arrays, and the first write after a publish clones them once.
func TestQuiescentTableHoldsOneCopy(t *testing.T) {
	tbl := NewTable("t", []KeySpec{{Width: 32, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(8, 0)})
	batch := make([]Entry, 1000)
	for i := range batch {
		batch[i] = Entry{Keys: []KeyMatch{ExactKey(uint64(i))}, Action: []Value{B(8, 1)}}
	}
	if err := tbl.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	recs := &tbl.packed.recs[0]
	if st := tbl.packed; len(st.recs) != 2000*int(st.stride) || st.stride != 2 {
		t.Fatalf("a batch of 1000 left %d records of %d words: it must size the table once", len(st.recs)/int(st.stride), st.stride)
	}
	tbl.WarmSnapshot()
	view := tbl.snap.Load()
	if &view.recs[0] != recs {
		t.Fatal("the published view is a copy of the store, not the store's array")
	}
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(5)}, Action: []Value{B(8, 2)}}); err != nil {
		t.Fatal(err)
	}
	if &tbl.packed.recs[0] == recs || &view.recs[0] != recs {
		t.Fatal("a write after publishing did not clone the shared array")
	}
	clone := &tbl.packed.recs[0]
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(6)}, Action: []Value{B(8, 2)}}); err != nil {
		t.Fatal(err)
	}
	if &tbl.packed.recs[0] != clone {
		t.Fatal("a second write before the next publish cloned again")
	}
	if a, _ := view.lookup(5, 0, 0, 0); a[0].V != 1 {
		t.Fatal("the write reached the published view")
	}
	if a, _ := tbl.LookupPacked(PackedKey{5}); a[0].V != 2 {
		t.Fatal("the write is not visible to the next lookup")
	}

	// A donor and three adopters hold one array between them until one
	// of them is written, and then exactly two.
	group := []*Table{tbl}
	for i := 0; i < 3; i++ {
		a := NewTable("t", tbl.Keys, tbl.Outputs, tbl.Default)
		if err := a.CopyFrom(tbl); err != nil {
			t.Fatal(err)
		}
		group = append(group, a)
	}
	arrays := func() int {
		seen := map[*uint64]bool{}
		for _, g := range group {
			seen[&g.packed.recs[0]] = true
		}
		return len(seen)
	}
	if n := arrays(); n != 1 {
		t.Fatalf("a donor and three adopters hold %d arrays, want 1", n)
	}
	if err := group[2].Insert(Entry{Keys: []KeyMatch{ExactKey(7)}, Action: []Value{B(8, 3)}}); err != nil {
		t.Fatal(err)
	}
	if n := arrays(); n != 2 {
		t.Fatalf("after one adopter was written the four hold %d arrays, want 2", n)
	}
	for i, g := range group {
		want := uint64(1)
		if i == 2 {
			want = 3
		}
		if a, _ := g.LookupPacked(PackedKey{7}); a[0].V != want {
			t.Fatalf("table %d answers %d for the key one adopter rewrote, want %d", i, a[0].V, want)
		}
	}
}

// TestGrow: Grow(n) sizes the store as InsertBatch sizes a batch of n,
// so the next n inserts, in chunks of any size, rehash nothing and lay
// the records out slot for slot as the one batch does. It writes no
// entry — Version, ScalarEpoch, the published view and every lookup are
// as they were — and it is a no-op on the priority list and on a
// keyless table.
func TestGrow(t *testing.T) {
	keys := []KeySpec{{Width: 32, Kind: MatchExact}, {Width: 32, Kind: MatchExact}}
	span := func(from, n int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			v := uint64(from + i)
			es[i] = Entry{Keys: []KeyMatch{ExactKey(v), ExactKey(^v & 0xffffffff)}, Action: []Value{B(32, v)}}
		}
		return es
	}
	whole := NewTable("t", keys, []FieldRef{"v"}, []Value{B(32, 0)})
	chunked := NewTable("t", keys, whole.Outputs, whole.Default)
	for _, tbl := range []*Table{whole, chunked} {
		if err := tbl.InsertBatch(span(1, 100)); err != nil {
			t.Fatal(err)
		}
	}
	chunked.WarmSnapshot()
	version, epoch, view := chunked.Version(), ScalarEpoch(), chunked.snap.Load()
	chunked.Grow(1000)
	if chunked.Version() != version || ScalarEpoch() != epoch || chunked.snap.Load() != view {
		t.Fatalf("Grow wrote: Version %d → %d, ScalarEpoch %d → %d, view replaced %t",
			version, chunked.Version(), epoch, ScalarEpoch(), chunked.snap.Load() != view)
	}
	for _, e := range span(1, 100) {
		if a, hit := chunked.LookupPacked(entryKey(e).packed()); !hit || a[0] != e.Action[0] {
			t.Fatalf("after Grow, key %v answers %v, %t", e.Keys, a, hit)
		}
	}
	recs := &chunked.packed.recs[0]
	batch := span(101, 1000)
	if err := whole.InsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < len(batch); c += 7 {
		if err := chunked.InsertBatch(batch[c:min(c+7, len(batch))]); err != nil {
			t.Fatal(err)
		}
		if &chunked.packed.recs[0] != recs {
			t.Fatalf("the chunk at %d of the %d entries Grow made room for rehashed", c, len(batch))
		}
	}
	if w, c := whole.packed, chunked.packed; w.slots != c.slots || !slices.Equal(w.recs, c.recs) {
		t.Fatalf("Grow and chunks laid out %d slots, one batch %d, or the records differ", c.slots, w.slots)
	}

	shapes := tableShapes()
	delete(shapes, "packed")
	delete(shapes, "wide")
	shapes["keyless"] = NewTable("s", nil, []FieldRef{"v"}, []Value{B(8, 0)})
	for name, tbl := range shapes {
		e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, 1)}}
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		tbl.WarmSnapshot()
		version, epoch, entries := tbl.Version(), ScalarEpoch(), tbl.Entries()
		var recs []uint64
		if tbl.packed != nil {
			recs = tbl.packed.recs
		}
		tbl.Grow(1000)
		if tbl.Version() != version || ScalarEpoch() != epoch || !reflect.DeepEqual(tbl.Entries(), entries) {
			t.Errorf("%s: Grow wrote", name)
		}
		if tbl.packed != nil && (len(tbl.packed.recs) != len(recs) || &tbl.packed.recs[0] != &recs[0]) {
			t.Errorf("%s: Grow rehashed the keyless table's array", name)
		}
	}
}

// tableShapes is one table of each shape: packed exact, wide exact (five
// columns, packed in three words) and TCAM, each with one output. The
// TCAM shape comes twice: all-ternary, and one column of each kind.
func tableShapes() map[string]*Table {
	cols := func(n int, kind MatchKind) []KeySpec {
		keys := make([]KeySpec, n)
		for i := range keys {
			keys[i] = KeySpec{Width: 32, Kind: kind}
		}
		return keys
	}
	return map[string]*Table{
		"packed": NewTable("t", cols(2, MatchExact), []FieldRef{"v"}, []Value{B(8, 0)}),
		"wide":   NewTable("t", cols(5, MatchExact), []FieldRef{"v"}, []Value{B(8, 0)}),
		"tcam":   NewTable("t", cols(2, MatchTernary), []FieldRef{"v"}, []Value{B(8, 0)}),
		"tcam-mixed": NewTable("t", []KeySpec{{Width: 32, Kind: MatchLPM}, {Width: 16, Kind: MatchRange},
			{Width: 8, Kind: MatchTernary}, {Width: 32, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(8, 0)}),
	}
}

// TestInsertBatchAllOrNothing: a batch with an invalid entry names the
// entry, installs none of the batch, and leaves the version and the
// published view alone — so no shard cache is busted for nothing.
func TestInsertBatchAllOrNothing(t *testing.T) {
	for name, tbl := range tableShapes() {
		t.Run(name, func(t *testing.T) {
			entry := func(v uint64) Entry {
				e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, v)}}
				for i := range e.Keys {
					e.Keys[i] = KeyMatch{Value: v, Aux: 0xff}
				}
				return e
			}
			if err := tbl.Insert(entry(1)); err != nil {
				t.Fatal(err)
			}
			tbl.WarmSnapshot()
			version, view := tbl.Version(), tbl.snap.Load()
			bad := map[string]Entry{
				"short key":   {Keys: entry(3).Keys[1:], Action: entry(3).Action},
				"long action": {Keys: entry(3).Keys, Action: []Value{B(8, 3), B(8, 3)}},
			}
			if tbl.IsExact() {
				wild := entry(3)
				wild.Keys[0] = AnyKey()
				bad["wildcard"] = wild
			}
			if col := slices.IndexFunc(tbl.Keys, func(k KeySpec) bool { return k.Kind == MatchExact }); col >= 0 {
				wide := entry(3) // a bit above the column's width: no lookup could reach it
				wide.Keys[col].Value |= 1 << tbl.Keys[col].Width
				bad["over-wide"] = wide
			}
			for what, e := range bad {
				err := tbl.InsertBatch([]Entry{entry(2), entry(1), e, entry(4)})
				if err == nil || !strings.Contains(err.Error(), "entry 2:") {
					t.Fatalf("%s: error %v does not name entry 2", what, err)
				}
				if tbl.Len() != 1 || tbl.Version() != version || tbl.snap.Load() != view {
					t.Fatalf("%s: a refused batch left %d entries, version %d (was %d), view replaced %t",
						what, tbl.Len(), tbl.Version(), version, tbl.snap.Load() != view)
				}
				key := make([]uint64, len(tbl.Keys))
				for v := uint64(1); v <= 4; v++ {
					for i := range key {
						key[i] = v
					}
					if a, hit := tbl.Lookup(key); hit != (v == 1) || hit && a[0].V != 1 {
						t.Fatalf("%s: Lookup(%d…) = %v, %t after the refused batch", what, v, a, hit)
					}
				}
			}
			if err := tbl.InsertBatch([]Entry{entry(2), entry(4)}); err != nil || tbl.Len() != 3 || tbl.Version() == version {
				t.Fatalf("a valid batch: %v, %d entries, version %d", err, tbl.Len(), tbl.Version())
			}
		})
	}
}

// TestCopyFrom: on every store the adopter comes to answer exactly as
// the donor does — what it held before is gone — and keeps doing so
// after the donor changes; a donor of another shape is refused with the
// table, its version and its view as they were.
func TestCopyFrom(t *testing.T) {
	for name, src := range tableShapes() {
		t.Run(name, func(t *testing.T) {
			dst := tableShapes()[name]
			entry := func(v uint64) Entry {
				e := Entry{Keys: make([]KeyMatch, len(src.Keys)), Action: []Value{B(8, v)}, Name: fmt.Sprintf("a%d", v)}
				for i := range e.Keys {
					e.Keys[i] = KeyMatch{Value: v, Aux: 0xff}
				}
				return e
			}
			answers := func(tbl *Table, v uint64) bool {
				key := make([]uint64, len(tbl.Keys))
				for i := range key {
					key[i] = v
				}
				a, hit := tbl.Lookup(key)
				return hit && a[0].V == v
			}
			if err := src.InsertBatch([]Entry{entry(1), entry(2)}); err != nil {
				t.Fatal(err)
			}
			if err := dst.Insert(entry(9)); err != nil {
				t.Fatal(err)
			}
			dst.WarmSnapshot()
			version, view := dst.Version(), dst.snap.Load()
			for what, other := range map[string]*Table{
				"fewer columns":  NewTable("o", src.Keys[1:], src.Outputs, src.Default),
				"more outputs":   NewTable("o", src.Keys, []FieldRef{"v", "w"}, []Value{B(8, 0), B(8, 0)}),
				"a wider output": NewTable("o", src.Keys, src.Outputs, []Value{B(16, 0)}),
				"another kind":   NewTable("o", append([]KeySpec{{Width: 32, Kind: MatchRange}}, src.Keys[1:]...), src.Outputs, src.Default),
			} {
				if err := dst.CopyFrom(other); err == nil {
					t.Fatalf("%s: CopyFrom accepted the donor", what)
				}
				if dst.Len() != 1 || !answers(dst, 9) || dst.Version() != version || dst.snap.Load() != view {
					t.Fatalf("%s: a refused CopyFrom left %d entries, version %d (was %d), view replaced %t",
						what, dst.Len(), dst.Version(), version, dst.snap.Load() != view)
				}
			}
			srcVersion := src.Version()
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != 2 || !answers(dst, 1) || !answers(dst, 2) || answers(dst, 9) || dst.Version() == version || src.Version() != srcVersion {
				t.Fatalf("after CopyFrom: %d entries, versions %d (was %d) and donor %d (was %d)", dst.Len(), dst.Version(), version, src.Version(), srcVersion)
			}
			if es := dst.Entries(); es[0].Name != "a1" && es[0].Name != "a2" {
				t.Fatalf("the adopted entries lost their names: %+v", es)
			}
			src.Delete(entry(1).Keys)
			if err := dst.Insert(entry(3)); err != nil {
				t.Fatal(err)
			}
			if !answers(dst, 1) || answers(src, 1) || answers(src, 3) || !answers(dst, 3) {
				t.Fatal("donor and adopter did not diverge independently")
			}
		})
	}
}

// TestLookupKeyWidth pins the key-width contract: Lookup with any other
// number of values than the table has columns is a miss, on every
// store. LookupWords takes the key's words packed by the table's layout,
// which its caller packs (an apply site — bytecode's
// TestApplyZeroFillsUnusedColumns — or Lookup), so the installed key hits
// through it on every store; LookupPacked takes at most four column
// values, so a wider table misses through it.
func TestLookupKeyWidth(t *testing.T) {
	for name, tbl := range tableShapes() {
		key := make([]uint64, len(tbl.Keys)+1)
		e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, 1)}}
		for i := range e.Keys {
			key[i], e.Keys[i] = 5, KeyMatch{Value: 5, Aux: 0xff}
		}
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		if _, hit := tbl.Lookup(key[:len(tbl.Keys)]); !hit {
			t.Errorf("%s: the installed key misses", name)
		}
		var k colKey
		copy(k[:], key[:len(tbl.Keys)])
		w := packKey(tbl.layout, k[:])
		words, wordsHit := tbl.LookupWords(w[0], w[1], w[2], w[3])
		packed, hit := tbl.LookupPacked(k.packed())
		if !wordsHit || words[0].V != 1 || hit != (len(tbl.Keys) <= 4) || hit && words[0] != packed[0] {
			t.Errorf("%s: LookupWords / LookupPacked of the installed key = %v, %t / %v, %t", name, words, wordsHit, packed, hit)
		}
		for _, vals := range [][]uint64{nil, key[:len(tbl.Keys)-1], key} {
			if a, hit := tbl.Lookup(vals); hit || !slices.Equal(a, tbl.Default) {
				t.Errorf("%s: Lookup of %d values on %d columns = %v, %t; want the default and a miss", name, len(vals), len(tbl.Keys), a, hit)
			}
		}
	}
	// A keyed table's all-zero key is an entry like any other, not the
	// answer to a short lookup.
	tbl := tableShapes()["packed"]
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(0), ExactKey(0)}, Action: []Value{B(8, 9)}}); err != nil {
		t.Fatal(err)
	}
	if _, hit := tbl.Lookup(nil); hit {
		t.Error("Lookup() on two columns hit the all-zero key")
	}
	if a, hit := tbl.Lookup([]uint64{0, 0}); !hit || a[0].V != 9 {
		t.Errorf("Lookup(0, 0) = %v, %t", a, hit)
	}
}

// TestScalarEpoch pins which writes move ScalarEpoch: every mutation of a
// keyless table (a scalar control), and no mutation of a keyed one.
func TestScalarEpoch(t *testing.T) {
	keyless := func() *Table { return NewTable("s", nil, []FieldRef{"v"}, []Value{B(8, 0)}) }
	set := Entry{Action: []Value{B(8, 7)}}
	donor := keyless()
	if err := donor.Insert(set); err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*Table, *Table, Entry) error{
		"Insert":      func(tbl, _ *Table, e Entry) error { return tbl.Insert(e) },
		"InsertBatch": func(tbl, _ *Table, e Entry) error { return tbl.InsertBatch([]Entry{e, e}) },
		"Delete":      func(tbl, _ *Table, e Entry) error { tbl.Delete(e.Keys); return nil },
		"Clear":       func(tbl, _ *Table, _ Entry) error { tbl.Clear(); return nil },
		"CopyFrom":    func(tbl, src *Table, _ Entry) error { return tbl.CopyFrom(src) },
	} {
		before := ScalarEpoch()
		if err := write(keyless(), donor, set); err != nil {
			t.Fatal(err)
		}
		if ScalarEpoch() == before {
			t.Errorf("%s on a keyless table left the epoch at %d", name, before)
		}
		for shape, tbl := range tableShapes() {
			e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, 1)}}
			before := ScalarEpoch()
			if err := write(tbl, tableShapes()[shape], e); err != nil {
				t.Fatal(err)
			}
			if ScalarEpoch() != before {
				t.Errorf("%s on a %s table moved the epoch", name, shape)
			}
		}
	}
}

// TestProfileChurn: overwrites and deletes cannot grow the action
// profile without bound. 10 000 overwrites of one key, each with an
// action no entry held before, leave at most 2 × entries + 8 tuples
// after every insert; so do 10 000 rounds of deleting and re-inserting a
// colliding pool's keys with fresh actions, a view published now and
// then so that compaction meets shared arrays too. Every key answers its
// last action throughout, and a tuple many entries hold is stored once.
func TestProfileChurn(t *testing.T) {
	tbl := NewTable("t", shapeKeys(5), []FieldRef{"v"}, []Value{B(32, 0)})
	st := tbl.packed
	insert := func(k colKey, v uint64) {
		t.Helper()
		if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0]), ExactKey(k[1])}, Action: []Value{B(32, v)}}); err != nil {
			t.Fatal(err)
		}
		if n := tuples(st); n > 2*tbl.Len()+8 {
			t.Fatalf("%d tuples for %d entries, want at most %d", n, tbl.Len(), 2*tbl.Len()+8)
		}
	}
	one := colKey{7, 9}
	for i := uint64(0); i < 10000; i++ {
		insert(one, i)
	}
	if a, hit := tbl.LookupPacked(one.packed()); !hit || a[0].V != 9999 {
		t.Fatalf("after 10 000 overwrites the key answers %v, %t", a, hit)
	}

	pool, last := collidingKeys(5, 64), map[colKey]uint64{one: 9999}
	for i := 0; i < 10000; i++ {
		k := pool[i%len(pool)]
		if i%3 == 0 {
			tbl.Delete([]KeyMatch{ExactKey(k[0]), ExactKey(k[1])})
			delete(last, k)
		} else {
			insert(k, uint64(i))
			last[k] = uint64(i)
		}
		if i%97 == 0 {
			tbl.WarmSnapshot()
		}
	}
	for k, v := range last {
		if a, hit := tbl.LookupPacked(k.packed()); !hit || a[0].V != v {
			t.Fatalf("key %v answers %v, %t after the churn, want %d", k[:2], a, hit, v)
		}
	}

	// Entries that share an action share its tuple.
	before := tuples(st)
	for i, k := range append(pool, one) {
		insert(k, uint64(i%2))
	}
	if n := tuples(st); n > before+2 {
		t.Fatalf("%d entries of two actions took %d tuples more", tbl.Len(), n-before)
	}
	st.rehash(int(st.slots) / 2)
	if n := tuples(st); n != 2 {
		t.Fatalf("a compaction of %d entries of two actions kept %d tuples", tbl.Len(), n)
	}
}

// tuples is the number of action tuples in st's profile.
func tuples(st *packedStore) int { return len(st.actions) / int(st.nout) }

// TestOverWideKey: an exact key with a bit set above its column's
// declared width, which InsertBatch refuses (TestInsertBatchAllOrNothing),
// is not the key its low bits name either: Delete of it removes nothing,
// on every store with an exact column. A lookup masks each column to its
// width as it packs the key, so on every store — packed, or the priority
// list's tests on the same words — the same key finds that entry.
func TestOverWideKey(t *testing.T) {
	for name, tbl := range tableShapes() {
		col := slices.IndexFunc(tbl.Keys, func(k KeySpec) bool { return k.Kind == MatchExact })
		if col < 0 {
			continue
		}
		e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, 5)}}
		for i := range e.Keys {
			e.Keys[i] = KeyMatch{Value: 5, Aux: 0xff}
		}
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		wide := slices.Clone(e.Keys)
		wide[col].Value |= 1 << tbl.Keys[col].Width
		if n := tbl.Delete(wide); n != 0 || tbl.Len() != 1 {
			t.Errorf("%s: Delete of the over-wide key removed %d entries, %d left", name, n, tbl.Len())
		}
		vals := make([]uint64, len(wide))
		for i, m := range wide {
			vals[i] = m.Value
		}
		if a, hit := tbl.Lookup(vals); !hit || a[0].V != 5 {
			t.Errorf("%s: a lookup with the bits above column %d's width set = %v, %t; want the entry of its low bits", name, col, a, hit)
		}
	}
}

// TestOverWideAction holds action values to their outputs' declared
// widths, each output's default's, on every table shape and a keyless
// one: a batch with a value that has a bit above its output's width is
// refused, naming the entry, and installs nothing of the batch; a value
// that fits but is carried at another width (a bit<32> 6 for a bit<8>
// output) is stored, looked up and listed at the output's width — the
// width the bytecode VM computes on it at.
func TestOverWideAction(t *testing.T) {
	shapes := tableShapes()
	shapes["keyless"] = NewTable("s", nil, []FieldRef{"v"}, []Value{B(8, 0)})
	for name, tbl := range shapes {
		entry := func(k uint64, a Value) Entry {
			e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{a}}
			for i := range e.Keys {
				e.Keys[i] = KeyMatch{Value: k, Aux: 0xff}
			}
			return e
		}
		version := tbl.Version()
		err := tbl.InsertBatch([]Entry{entry(1, B(8, 5)), entry(2, Value{W: 32, V: 0x105})})
		if err == nil || !strings.Contains(err.Error(), "entry 1:") || tbl.Len() != 0 || tbl.Version() != version {
			t.Errorf("%s: a batch with a 9-bit value for an 8-bit output: error %v, %d entries installed, version moved %t",
				name, err, tbl.Len(), tbl.Version() != version)
		}
		if err := tbl.Insert(entry(3, Value{W: 32, V: 6})); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vals := make([]uint64, len(tbl.Keys))
		for i := range vals {
			vals[i] = 3
		}
		if a, hit := tbl.Lookup(vals); !hit || a[0] != B(8, 6) {
			t.Errorf("%s: lookup = %v, %t; want 6:bit<8>", name, a, hit)
		}
		if es := tbl.Entries(); len(es) != 1 || es[0].Action[0] != B(8, 6) {
			t.Errorf("%s: entries %+v, want one of action 6:bit<8>", name, es)
		}
	}
}

// TestKeyLayout pins how columns pack into key words: at their declared
// widths, first fit in column order and none straddling two words, a
// width outside 1..64 taking a whole word; a record is those words plus
// one index word when the table has outputs. A key that needs a fifth
// word is refused, and NewTable panics on it naming the table. A
// published view fits the 96-byte size class: it holds no packing state.
func TestKeyLayout(t *testing.T) {
	if n := unsafe.Sizeof(packedSnap{}); n > 96 {
		t.Errorf("a packedSnap is %d bytes, more than the 96-byte size class", n)
	}
	for _, c := range []struct {
		widths      []int
		nout        int
		words       int
		placed      [][2]int // each column's word and shift
		recordBytes int
	}{
		{nil, 1, 1, nil, 16},
		{[]int{32}, 0, 1, [][2]int{{0, 0}}, 8},
		{[]int{32, 32}, 1, 1, [][2]int{{0, 0}, {0, 32}}, 16},
		{[]int{16, 16, 16, 8}, 2, 1, [][2]int{{0, 0}, {0, 16}, {0, 32}, {0, 48}}, 16},
		{[]int{64, 1}, 1, 2, [][2]int{{0, 0}, {1, 0}}, 24},
		{[]int{33, 33, 31, 31}, 1, 2, [][2]int{{0, 0}, {1, 0}, {0, 33}, {1, 33}}, 24},
		{[]int{32, 8, 32, 16}, 1, 2, [][2]int{{0, 0}, {0, 32}, {1, 0}, {0, 40}}, 24},
		{[]int{64, 64, 64, 64}, 1, 4, [][2]int{{0, 0}, {1, 0}, {2, 0}, {3, 0}}, 40},
		{[]int{0, 65}, 0, 2, [][2]int{{0, 0}, {1, 0}}, 16},
		{[]int{8, 16, 32, 8, 16}, 1, 2, [][2]int{{0, 0}, {0, 8}, {0, 24}, {0, 56}, {1, 0}}, 24},
		{[]int{1, 1, 1, 1, 1, 1}, 0, 1, [][2]int{{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}, 8},
	} {
		keys := make([]KeySpec, len(c.widths))
		for i, w := range c.widths {
			keys[i] = KeySpec{Width: w}
		}
		layout, err := KeyLayout(keys)
		if err != nil {
			t.Fatalf("widths %v: %v", c.widths, err)
		}
		st := newPackedStore(layout, c.nout)
		if int(st.kw) != c.words || 8*int(st.stride) != c.recordBytes {
			t.Errorf("widths %v, %d outputs: %d key words and %d-byte records, want %d and %d", c.widths, c.nout, st.kw, 8*st.stride, c.words, c.recordBytes)
		}
		for i, p := range c.placed {
			if l := layout[i]; int(l.Word) != p[0] || int(l.Shift) != p[1] || l.Mask != colBits(c.widths[i]) {
				t.Errorf("widths %v: column %d in word %d at bit %d under %#x, want word %d at bit %d", c.widths, i, l.Word, l.Shift, l.Mask, p[0], p[1])
			}
		}
	}
	over := []KeySpec{{Width: 64}, {Width: 64}, {Width: 64}, {Width: 64}, {Width: 8}}
	if _, err := KeyLayout(over); err == nil {
		t.Error("KeyLayout packed 264 bits into four words")
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "table filtering") {
			t.Errorf("NewTable on a key of five words: panic %v, want one naming the table", r)
		}
	}()
	NewTable("filtering", over, nil, nil)
}
