package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// widthPool is the key pool of TestExactTableEveryWidth for ncols
// columns of width bits, by index: the all-zero key, all ones, a ramp,
// the ramp with only its last column changed, a key with only its last
// column set, one with only its first column set, and one with the top
// bit set in every column. The keys are distinct at every width.
func widthPool(ncols, width int) [][]uint64 {
	pool := make([][]uint64, 7)
	for i := range pool {
		pool[i] = make([]uint64, ncols)
	}
	for c := 0; c < ncols; c++ {
		pool[1][c] = 1
		pool[2][c] = uint64(2 + c)
		pool[3][c] = uint64(2 + c)
		pool[6][c] = 1<<(width-1) | uint64(c)
	}
	pool[3][ncols-1] += 100
	pool[4][ncols-1] = 9
	pool[5][0] = 11
	return pool
}

// widthScript runs one script of writes on an all-exact table of ncols
// columns of width bits and returns what it observed after every step,
// with keys named by their index in widthPool — so the transcript reads
// the same at every width. Priority is never observed: an exact table
// matches at most one entry per key, so it has nothing to order.
func widthScript(t *testing.T, ncols, width int) []string {
	pool := widthPool(ncols, width)
	keys := make([]KeySpec, ncols)
	for i := range keys {
		keys[i] = KeySpec{Name: fmt.Sprintf("k%d", i), Width: width, Kind: MatchExact}
	}
	newTable := func() *Table { return NewTable("t", keys, []FieldRef{"v"}, []Value{B(8, 0xee)}) }
	entry := func(k, act, prio int, name string) Entry {
		e := Entry{Keys: make([]KeyMatch, ncols), Priority: prio, Action: []Value{B(8, uint64(act))}, Name: name}
		for c, v := range pool[k] {
			e.Keys[c] = ExactKey(v)
		}
		return e
	}
	index := func(ms []KeyMatch) string {
		vals := make([]uint64, len(ms))
		for c, m := range ms {
			if m != ExactKey(m.Value) {
				return fmt.Sprintf("non-exact matcher %+v", m)
			}
			vals[c] = m.Value
		}
		for i, k := range pool {
			if slices.Equal(k, vals) {
				return fmt.Sprintf("k%d", i)
			}
		}
		return fmt.Sprintf("unknown key %v", vals)
	}
	var log []string
	observe := func(step string, tbl *Table) {
		var b strings.Builder
		fmt.Fprintf(&b, "%s: exact=%t len=%d", step, tbl.IsExact(), tbl.Len())
		for i, k := range pool {
			a, hit := tbl.Lookup(k)
			fmt.Fprintf(&b, " k%d=%v/%t", i, a, hit)
		}
		a, hit := tbl.Lookup(pool[1][1:])
		fmt.Fprintf(&b, " short=%v/%t", a, hit)
		var es []string
		for _, e := range tbl.Entries() {
			es = append(es, fmt.Sprintf("%s=%v%q", index(e.Keys), e.Action, e.Name))
		}
		slices.Sort(es)
		fmt.Fprintf(&b, " entries=%v", es)
		log = append(log, b.String())
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%d columns: %v", ncols, err)
		}
	}

	src := newTable()
	observe("empty", src)
	for _, e := range []Entry{entry(1, 10, 0, ""), entry(2, 20, 5, "two"), entry(0, 30, 0, ""), entry(4, 40, 1, "")} {
		must(src.Insert(e))
	}
	observe("insert", src)
	must(src.Insert(entry(2, 21, 9, "")))
	must(src.Insert(entry(1, 11, -3, "one")))
	observe("re-insert at another priority", src)
	wild := entry(5, 1, 0, "")
	wild.Keys[ncols-1] = AnyKey()
	log = append(log, fmt.Sprintf("wildcard refused=%t", src.Insert(wild) != nil))
	log = append(log, fmt.Sprintf("delete absent=%d present=%d again=%d",
		src.Delete(entry(3, 0, 0, "").Keys), src.Delete(entry(2, 0, 0, "").Keys), src.Delete(entry(2, 0, 0, "").Keys)))
	observe("delete", src)
	must(src.InsertBatch([]Entry{entry(3, 50, 0, "three"), entry(5, 60, 4, ""), entry(3, 51, 2, "")}))
	observe("batch", src)

	dst := newTable()
	must(dst.Insert(entry(6, 90, 0, "gone")))
	must(dst.CopyFrom(src))
	observe("adopted", dst)
	must(src.Insert(entry(6, 70, 0, "")))
	dst.Delete(entry(0, 0, 0, "").Keys)
	must(dst.Insert(entry(1, 12, 7, "")))
	observe("donor after both wrote", src)
	observe("adopter after both wrote", dst)
	src.Clear()
	observe("clear", src)
	observe("adopter after the donor cleared", dst)
	return log
}

// TestExactTableEveryWidth runs one script — insert, re-insert of a key
// at another Priority, Delete, InsertBatch, CopyFrom, Clear — on
// all-exact tables of one to six columns, and requires every width to
// observe through Lookup, Len and Entries what one column does: how many
// columns a key has does not change what a table does with it. Columns
// are 64 bits wide up to four, and 32 bits at five and six, whose key
// words four 64-bit columns would overflow; every shape is packed.
func TestExactTableEveryWidth(t *testing.T) {
	want := widthScript(t, 1, 64)
	for ncols := 2; ncols <= 6; ncols++ {
		width := 64
		if ncols > 4 {
			width = 32
		}
		got := widthScript(t, ncols, width)
		for i := range max(len(got), len(want)) {
			if i >= len(got) || i >= len(want) || got[i] != want[i] {
				t.Fatalf("%d columns, step %d:\n got %s\nwant %s", ncols, i, at(got, i), at(want, i))
			}
		}
	}
	if !strings.Contains(want[len(want)-1], "k1=[12:bit<8>]/true") {
		t.Fatalf("the script observed nothing: %s", want[len(want)-1])
	}
}

func at(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "(nothing)"
}
