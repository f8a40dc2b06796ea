package pipeline

import "testing"

// BenchmarkLookup times a hit through each lookup entry — LookupWords,
// the key's packed words as four arguments, as an apply site passes
// them, and LookupPacked, the key's column values as a PackedKey array,
// which it packs by the table's layout first — on the table shapes a
// campus packet meets: a small one-column dictionary, a keyless scalar, a
// two-column table the size of the firewall's allowed (152 k entries,
// past the L2 cache) and a 32-entry TCAM shaped like aether's
// applications table. On a table that fits in L1 the difference between
// the two entries is the cost of passing and packing the key.
func BenchmarkLookup(b *testing.B) {
	out, def := []FieldRef{"v"}, []Value{B(16, 0)}
	install := func(tbl *Table, es []Entry) *Table {
		if err := tbl.InsertBatch(es); err != nil {
			b.Fatal(err)
		}
		tbl.WarmSnapshot()
		return tbl
	}
	const bigN = 152 * 1024
	bigKey := func(i uint64) (uint64, uint64) { return 0x0a000000 + i, 0x0a800000 + i>>3 }
	small, big, tcam := make([]Entry, 4), make([]Entry, bigN), make([]Entry, 32)
	for i := range small {
		small[i] = Entry{Keys: []KeyMatch{ExactKey(uint64(i + 1))}, Action: []Value{B(16, 1)}}
	}
	for i := range big {
		k0, k1 := bigKey(uint64(i))
		big[i] = Entry{Keys: []KeyMatch{ExactKey(k0), ExactKey(k1)}, Action: []Value{B(16, 1)}}
	}
	for i := range tcam {
		tcam[i] = Entry{
			Keys:     []KeyMatch{PrefixKey(uint64(i)<<27, 5), RangeKey(0, 65535), AnyKey()},
			Priority: i,
			Action:   []Value{B(16, 1)},
		}
	}
	shapes := []struct {
		name string
		tbl  *Table
		key  func(i uint64) PackedKey // the i-th lookup's key; every one hits
	}{
		{"small", install(NewTable("t", []KeySpec{{Width: 32}}, out, def), small),
			func(i uint64) PackedKey { return PackedKey{i&3 + 1} }},
		{"keyless", install(NewTable("t", nil, out, def), []Entry{{Action: []Value{B(16, 1)}}}),
			func(uint64) PackedKey { return PackedKey{} }},
		{"big", install(NewTable("t", []KeySpec{{Width: 32}, {Width: 32}}, out, def), big),
			func(i uint64) PackedKey { k0, k1 := bigKey(i * 40503 % bigN); return PackedKey{k0, k1} }},
		{"tcam", install(NewTable("t", []KeySpec{{Width: 32, Kind: MatchLPM}, {Width: 16, Kind: MatchRange}, {Width: 8, Kind: MatchTernary}}, out, def), tcam),
			func(i uint64) PackedKey { return PackedKey{i * 0x9e3779b9 & 0xffffffff, i & 0xffff, 6} }},
	}
	for _, sh := range shapes {
		n := 1024
		if sh.name == "big" {
			n = 1 << 17 // most of the table, in a scattered order
		}
		keys, words, mask := make([]PackedKey, n), make([]PackedKey, n), n-1
		for i := range keys {
			keys[i] = sh.key(uint64(i))
			words[i] = packKey(sh.tbl.layout, keys[i][:len(sh.tbl.Keys)])
		}
		b.Run(sh.name+"/words", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := &words[i&mask]
				if _, hit := sh.tbl.LookupWords(k[0], k[1], k[2], k[3]); !hit {
					b.Fatal("miss")
				}
			}
		})
		b.Run(sh.name+"/packed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, hit := sh.tbl.LookupPacked(keys[i&mask]); !hit {
					b.Fatal("miss")
				}
			}
		})
	}
}
