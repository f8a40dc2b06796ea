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
)

// modelPool is the key pool of the model test: collidingKeys, plus what
// a store that marks an empty slot by its key can get wrong — the
// all-zero key itself (index modelZero) and one key per column with only
// that column set, so a live record may start with a zero word, or a
// whole zero Value.
func modelPool(ncols int) []PackedKey {
	pool := collidingKeys(ncols, modelZero)
	if ncols == 0 {
		return pool
	}
	pool = append(pool, PackedKey{})
	for c := 0; c < ncols; c++ {
		var k PackedKey
		k[c] = uint64(c + 1)
		pool = append(pool, k)
	}
	return pool
}

const modelZero = 72

// collidingKeys returns n distinct keys of ncols columns built to
// collide: three in four home in the last slot of every table of up to
// 1 024 slots (top ten hash bits all ones, which home scales to at least
// slots - 1), so their probe run wraps around to slot 0; the rest home
// in slot 0 (top ten bits zero) and sit in the middle of that run. A
// keyless table has the one empty key.
func collidingKeys(ncols, n int) []PackedKey {
	if ncols == 0 {
		return []PackedKey{{}}
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if keys := pools[ncols]; len(keys) >= n {
		return keys[:n:n]
	}
	keys := make([]PackedKey, 0, n)
	for v := uint64(1); len(keys) < n; v++ {
		var k PackedKey
		for c := 0; c < ncols; c++ {
			k[c] = v * uint64(c+1)
		}
		want := uint64(0x3ff)
		if len(keys)%4 == 3 {
			want = 0
		}
		if hashPacked(split(k))>>54 == want {
			keys = append(keys, k)
		}
	}
	pools[ncols] = keys
	return keys
}

// pools memoizes collidingKeys per column count: finding the keys is a
// thousand hashes each, and the fuzzer asks once per input.
var (
	poolMu sync.Mutex
	pools  [MaxPackedKeys + 1][]PackedKey
)

// tableModel is the plain-map oracle the store is checked against.
type tableModel struct {
	acts  map[PackedKey][]Value
	names map[PackedKey]string
}

func entryKey(e Entry) PackedKey { return packEntryKeys(e.Keys) }

// checkTable compares every observable of tbl with the model: the three
// lookups for every key of the pool, Len, and the sorted Entries. A
// lookup publishes the view, which marks the array shared; without
// lookups the table is left as the op left it, so the next write meets
// whatever marks the op itself set. Every key is looked up twice by
// LookupWords: first from the no-view state a mutation leaves (the
// view dropped again before each key), then from the view that
// lookup published.
func checkTable(t *testing.T, step string, tbl *Table, ncols int, pool []PackedKey, m *tableModel, lookups bool) {
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
		for _, view := range []string{"no view", "view"} {
			if got, ok := tbl.LookupWords(k[0], k[1], k[2], k[3]); ok != hit || !slices.Equal(got, want) {
				t.Fatalf("%s: LookupWords(%v) from %s = %v, %t; want %v, %t", step, k[:ncols], view, got, ok, want, hit)
			}
		}
		if got, ok := tbl.LookupPacked(k); ok != hit || !slices.Equal(got, want) {
			t.Fatalf("%s: LookupPacked(%v) = %v, %t; want %v, %t", step, k[:ncols], got, ok, want, hit)
		}
		if got, ok := tbl.Lookup(k[:ncols]); ok != hit || !slices.Equal(got, want) {
			t.Fatalf("%s: Lookup(%v) = %v, %t; want %v, %t", step, k[:ncols], got, ok, want, hit)
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

// runTableOps drives two tables of one shape, each with its own model,
// through the op stream and checks both against their models after every
// step, so a write that reaches the table it was not aimed at shows.
// data[0] picks the column count (0–4), data[1] the action length (0–2);
// each op is three bytes: kind (low nibble; bit 4 picks the table, bit 5
// checks the step without lookups), key index, value. One op has the
// table adopt the other's entries (CopyFrom), another make room for up
// to 63 more (Grow), which must leave its Version alone. Action values
// are raw — any width, bits above it set — so a store that reinterprets
// W or V shows.
func runTableOps(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	ncols, nout := int(data[0]%5), int(data[1]%3)
	keys := make([]KeySpec, ncols)
	for i := range keys {
		keys[i] = KeySpec{Name: fmt.Sprintf("k%d", i), Width: 64, Kind: MatchExact}
	}
	outs, def := make([]FieldRef, nout), make([]Value, nout)
	for i := range outs {
		outs[i], def[i] = FieldRef(fmt.Sprintf("o%d", i)), B(16, 0xdead)
	}
	tbls := [2]*Table{NewTable("t0", keys, outs, def), NewTable("t1", keys, outs, def)}
	pool := modelPool(ncols)
	action := func(val uint64, o int) Value {
		return Value{W: int(val % 65), V: val*0x0101010101010101 + uint64(o)}
	}
	var ms [2]*tableModel
	for i := range ms {
		ms[i] = &tableModel{acts: map[PackedKey][]Value{}, names: map[PackedKey]string{}}
	}
	// One Entry refilled for every insert, as a bulk installer would.
	e := Entry{Keys: make([]KeyMatch, ncols), Action: make([]Value, nout)}
	versions := [2]uint64{tbls[0].Version(), tbls[1].Version()}
	for pc := 2; pc+2 < len(data); pc += 3 {
		kind, k, val := data[pc]%16, pool[int(data[pc+1])%len(pool)], uint64(data[pc+2])
		target := int(data[pc] >> 4 & 1)
		tbl, m := tbls[target], ms[target]
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
			m.acts[k] = slices.Clone(e.Action)
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
				m.acts[bk] = batch[b].Action
				delete(m.names, bk)
			}
			if err := tbl.InsertBatch(batch); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
		case kind == 14:
			tbl.WarmSnapshot()
			mutated = false
		case val < 32: // Clear, one time in eight
			tbl.Clear()
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
	}
}

// TestTableModel runs long random op streams for every column count,
// with a key pool small and colliding enough that backward-shift
// deletion crosses the wrap-around and growth lands mid-chain. Every
// shape opens with the all-zero key inserted, replaced, deleted and
// re-inserted by name, then a batch across it that grows the table; then
// the second table adopts the first — zero key, named entry and all —
// the donor is written, the adopter is written, and the first table
// adopts the second back.
func TestTableModel(t *testing.T) {
	prologue := []byte{0, modelZero, 1, 0, modelZero, 2, 9, modelZero, 0, 9, modelZero, 0, 8, modelZero, 3, 13, modelZero - 7, 15,
		0x3f, 0, 0xff, 0x20, 1, 4, 0x10, 2, 5, 0x19, modelZero, 0, 0x2f, 0, 0xff, 0x30, 3, 6, 9, 3, 0}
	for ncols := 0; ncols <= 4; ncols++ {
		for nout := 0; nout <= 2; nout++ {
			rng := rand.New(rand.NewSource(int64(17*ncols + nout)))
			data := make([]byte, 2+3*1500)
			rng.Read(data)
			data[0], data[1] = byte(ncols), byte(nout)
			copy(data[2:], prologue)
			t.Run(fmt.Sprintf("cols%d_out%d", ncols, nout), func(t *testing.T) { runTableOps(t, data) })
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
		if st.key(st.rec(last)) != pool[0] || st.key(st.rec(0)) == (PackedKey{}) || st.key(st.rec(1)) == (PackedKey{}) {
			t.Fatalf("%d slots: the run does not wrap: records %v", st.slots, st.recs)
		}
		if n := tbl.Delete([]KeyMatch{ExactKey(pool[0][0])}); n != 1 {
			t.Fatalf("%d slots: Delete = %d", st.slots, n)
		}
		for i, k := range pool {
			if a, hit := tbl.LookupPacked(k); hit != (i > 0) || hit && a[0].V != uint64(i+1) {
				t.Fatalf("%d slots: key %d after the delete: %v, %t", st.slots, i, a, hit)
			}
		}
		if st.key(st.rec(last)) != pool[1] {
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
	stable, churn := pool[:32], append(pool[32:], PackedKey{}) // the all-zero key churns too
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
				if a, hit := tbl.LookupPacked(k); !hit || a[0].V != k[0] {
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
			oldRecs, oldZero := slices.Clone(old.recs), slices.Clone(old.zero)
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			view := dst.publish()
			if &view.recs[0] != &src.packed.recs[0] {
				t.Fatal("the adopter holds a copy of the donor's array, not the array")
			}
			before, zero := slices.Clone(view.recs), slices.Clone(view.zero)
			_ = src.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, uint64(i))}})
			_ = dst.Insert(Entry{Keys: []KeyMatch{ExactKey(k[0])}, Action: []Value{B(64, ^uint64(i))}})
			src.Delete([]KeyMatch{ExactKey(k[0])})
			_ = dst.Insert(Entry{Keys: []KeyMatch{ExactKey(0)}, Action: []Value{B(64, uint64(i))}})
			if !slices.Equal(view.recs, before) || !slices.Equal(view.zero, zero) ||
				!slices.Equal(old.recs, oldRecs) || !slices.Equal(old.zero, oldZero) {
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
			before, zero := slices.Clone(view.recs), slices.Clone(view.zero)
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
			if !slices.Equal(view.recs, before) || !slices.Equal(view.zero, zero) {
				t.Fatal("a published record array or zero-key action was written")
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
	if st := tbl.packed; len(st.recs) != 2000*st.stride || st.stride != 2 {
		t.Fatalf("a batch of 1000 left %d records of %d values: it must size the table once", len(st.recs)/st.stride, st.stride)
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
	if a, _ := view.lookup(split(PackedKey{5})); a[0].V != 1 {
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
		seen := map[*Value]bool{}
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
		if a, hit := chunked.LookupPacked(packEntryKeys(e.Keys)); !hit || a[0] != e.Action[0] {
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
	shapes["keyless"] = NewTable("s", nil, []FieldRef{"v"}, []Value{B(8, 0)})
	for name, tbl := range shapes {
		e := Entry{Keys: make([]KeyMatch, len(tbl.Keys)), Action: []Value{B(8, 1)}}
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
		tbl.WarmSnapshot()
		version, epoch, entries := tbl.Version(), ScalarEpoch(), tbl.Entries()
		var recs []Value
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

// tableShapes is one table of each shape: packed exact, wide exact (all
// exact, on the priority list) and TCAM, each with one output. The TCAM
// shape comes twice: all-ternary, and one column of each kind at the full
// MaxPackedKeys width.
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
		"wide":   NewTable("t", cols(MaxPackedKeys+1, MatchExact), []FieldRef{"v"}, []Value{B(8, 0)}),
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
				"fewer columns": NewTable("o", src.Keys[1:], src.Outputs, src.Default),
				"more outputs":  NewTable("o", src.Keys, []FieldRef{"v", "w"}, []Value{B(8, 0), B(8, 0)}),
				"another kind":  NewTable("o", append([]KeySpec{{Width: 32, Kind: MatchRange}}, src.Keys[1:]...), src.Outputs, src.Default),
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
// store. LookupWords and LookupPacked always take four words, which
// their callers zero past the table's columns (bytecode's
// TestApplyZeroFillsUnusedColumns holds runApply to that): so filled,
// the installed key hits through both on every store of at most
// MaxPackedKeys columns, and a wider table answers only Lookup.
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
		var k PackedKey
		copy(k[:], key[:len(tbl.Keys)])
		words, _ := tbl.LookupWords(k[0], k[1], k[2], k[3])
		packed, hit := tbl.LookupPacked(k)
		if hit != (len(tbl.Keys) <= MaxPackedKeys) || words[0] != packed[0] {
			t.Errorf("%s: LookupWords / LookupPacked of the installed key = %v / %v, %t", name, words, packed, hit)
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
