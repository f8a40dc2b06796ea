package engine_test

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// plainSeed installs the firewall seed's entries with one InsertBatch
// per table and nothing else: the seeding path that cannot adopt.
func plainSeed(pairs [][2]uint32) func(*pipeline.State) error {
	var batch []pipeline.Entry
	for _, p := range pairs {
		for dir := 0; dir < 2; dir++ {
			batch = append(batch, firewallEntry(p[dir], p[1-dir]))
		}
	}
	return func(st *pipeline.State) error { return st.Tables["allowed"].InsertBatch(batch) }
}

func firewallEntry(src, dst uint32) pipeline.Entry {
	return pipeline.Entry{
		Keys:   []pipeline.KeyMatch{pipeline.ExactKey(uint64(src)), pipeline.ExactKey(uint64(dst))},
		Action: []pipeline.Value{pipeline.BoolV(true)},
	}
}

// configurePlain is experiments.ConfigureReplayEngine with the firewall
// seeded by plainSeed, switch by switch. The oracle and the reference
// engine below are configured through it, so neither shares the
// adoption mechanism with the engine under test.
func configurePlain(in installFn, pairs [][2]uint32) error {
	sws := experiments.ReplaySwitchInfos()
	err := experiments.ConfigureBenign(sws, func(checker string, swIdx int, fn func(*pipeline.State) error) error {
		return in(checker, sws[swIdx].ID, fn)
	})
	for i := 0; err == nil && i < len(sws); i++ {
		err = in("stateful-firewall", sws[i].ID, plainSeed(pairs))
	}
	return err
}

// allowedTables returns the stateful firewall's allowed table per switch.
func allowedTables(t *testing.T, in installFn) map[uint32]*pipeline.Table {
	t.Helper()
	out := map[uint32]*pipeline.Table{}
	for _, sw := range experiments.ReplaySwitchInfos() {
		err := in("stateful-firewall", sw.ID, func(st *pipeline.State) error {
			out[sw.ID] = st.Tables["allowed"]
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func sortedEntries(tbl *pipeline.Table) []pipeline.Entry {
	es := tbl.Entries()
	slices.SortFunc(es, func(a, b pipeline.Entry) int {
		return slices.CompareFunc(a.Keys, b.Keys, func(x, y pipeline.KeyMatch) int { return cmp.Compare(x.Value, y.Value) })
	})
	return es
}

// adoptionRingSize holds a whole run's digests on one ring (at most
// 1 501 are raised), because the test compares tap order: a full ring's
// digest folds ahead of those still queued.
const adoptionRingSize = 1 << 11

// TestSeedAdoptionEquivalence is the oracle for the aliasing bug seed
// adoption could introduce. Engine A is seeded through FirewallSeed, so
// three of its four switches adopt the first one's table; engine B takes
// a plain InsertBatch per switch. The same campus and violation packets
// must leave identical verdicts, Counts, published digests and
// per-switch entries — and still do when one switch's table is written
// (an Insert ahead of the first packet, then a live Insert, a Delete and
// a Clear mid-replay), on the donor or on an adopter, with the other
// three switches' entries and versions untouched by it. Nothing publishes a view before the first
// write (no Warm, and a spine's table is never looked up), so only
// CopyFrom's own marks stand between that write and the shared array.
func TestSeedAdoptionEquivalence(t *testing.T) {
	campus, pairs := experiments.CampusEnginePackets(3000, 9)
	pkts := slices.Concat(campus, violationWorkload(600))
	for i := range pkts {
		pkts[i].Index = int32(i)
	}
	// The withheld pairs are installed later, one ahead of the first
	// packet and one live; the deleted one has traffic on either side of
	// its deletion.
	early, withheld, deleted, seed := pairs[0], pairs[1], pairs[2], pairs[2:]
	install := func(p [2]uint32) func(*pipeline.Table) {
		return func(tbl *pipeline.Table) {
			if err := tbl.InsertBatch([]pipeline.Entry{firewallEntry(p[0], p[1]), firewallEntry(p[1], p[0])}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, target := range []uint32{1, 2, 3} { // the donor leaf, the egress leaf (an adopter), a spine
		type side struct {
			seq      *engine.Sequential
			verdicts []engine.Verdict
			reports  *reportTap
			tables   map[uint32]*pipeline.Table
		}
		build := func(configure func(installFn, [][2]uint32) error) side {
			s := side{verdicts: make([]engine.Verdict, len(pkts)), reports: newReportTap(adoptionRingSize)}
			s.seq = engine.NewSequential(engine.Config{Checkers: corpus(t), Verdicts: s.verdicts, ReportBus: s.reports.bus})
			if err := configure(s.seq.Install, seed); err != nil {
				t.Fatal(err)
			}
			s.tables = allowedTables(t, s.seq.Install)
			return s
		}
		a, b := build(experiments.ConfigureReplayEngine), build(configurePlain)

		compare := func(step string) {
			t.Helper()
			if ca, cb := a.seq.Counts(), b.seq.Counts(); !reflect.DeepEqual(ca, cb) {
				t.Fatalf("switch %d, %s: counts diverge\nadopting %+v\n   plain %+v", target, step, ca, cb)
			}
			if !reflect.DeepEqual(a.verdicts, b.verdicts) {
				t.Fatalf("switch %d, %s: verdicts diverge", target, step)
			}
			if ra, rb := digestKeys(t, a.reports.digests(t)), digestKeys(t, b.reports.digests(t)); !reflect.DeepEqual(sortedReports(ra), sortedReports(rb)) {
				t.Fatalf("switch %d, %s: reports diverge", target, step)
			}
			for sw, ta := range a.tables {
				if !reflect.DeepEqual(sortedEntries(ta), sortedEntries(b.tables[sw])) {
					t.Fatalf("switch %d, %s: switch %d's allowed entries diverge (%d adopting, %d plain)",
						target, step, sw, ta.Len(), b.tables[sw].Len())
				}
			}
		}
		replay := func(lo, hi int) {
			for _, s := range []side{a, b} {
				for i := lo; i < hi; i += 16 {
					s.seq.ProcessBatch(pkts[i:min(i+16, hi)])
				}
			}
		}
		// write applies one mutation to the target switch on both sides
		// and holds every other switch to what it was.
		write := func(step string, fn func(*pipeline.Table)) {
			t.Helper()
			type was struct {
				entries []pipeline.Entry
				version uint64
			}
			before := map[*pipeline.Table]was{}
			for _, s := range []side{a, b} {
				for sw, tbl := range s.tables {
					if sw != target {
						before[tbl] = was{sortedEntries(tbl), tbl.Version()}
					}
				}
				fn(s.tables[target])
			}
			for tbl, w := range before {
				if tbl.Version() != w.version || !reflect.DeepEqual(sortedEntries(tbl), w.entries) {
					t.Fatalf("switch %d, %s: the write reached another switch's table (version %d → %d, %d → %d entries)",
						target, step, w.version, tbl.Version(), len(w.entries), tbl.Len())
				}
			}
		}

		q := len(pkts) / 4
		write("insert ahead of the first packet", install(early))
		replay(0, q)
		compare("seeded")
		write("live insert", install(withheld))
		replay(q, 2*q)
		compare("after the live insert")
		write("delete", func(tbl *pipeline.Table) {
			if n := tbl.Delete(firewallEntry(deleted[0], deleted[1]).Keys); n != 1 {
				t.Fatalf("switch %d: Delete removed %d entries", target, n)
			}
		})
		replay(2*q, 3*q)
		compare("after the delete")
		write("clear", func(tbl *pipeline.Table) { tbl.Clear() })
		replay(3*q, len(pkts))
		compare("after the clear")
		if c := a.seq.Counts(); c.Packets != uint64(len(pkts)) || c.Errors != 0 || target != 3 && c.Reports == 0 {
			t.Fatalf("switch %d: vacuous run: %+v", target, c)
		}
	}
}
