package experiments

import (
	"fmt"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
)

// lastHopRejectSrc rejects, at a packet's last hop, every flow from a
// source address that is a multiple of 5.
const lastHopRejectSrc = `
header bit<32> ipv4_src @ "hdr.ipv4.src_addr";
{ }
{ }
{
  if (ipv4_src % 5 == 0) {
    reject;
  }
}
`

// TestResidentMatchesWire is the resident-vs-wire row of the invariance
// suite: the same campus packets run through engine.Sequential, where a
// packet's telemetry stays in the context's slots from hop to hop, and
// through the campus fabric's netsim switches, where it crosses every link
// as an encoded blob and a first hop is two passes. The corpus, the armed
// storm probe and a probe that rejects some flows at the last hop are
// deployed on both sides, with the same benign state and firewall seed.
// Every checker must reject and report as often on one side as on the
// other, and on each side some checker must report and some must reject.
func TestResidentMatchesWire(t *testing.T) {
	const packets, seed = 3000, 11
	storm := checkers.Property{Key: "storm-probe", Source: StormCheckerSrc}
	rejects := checkers.Property{Key: "reject-probe", Source: lastHopRejectSrc}
	armed := pipeline.Entry{Action: []pipeline.Value{pipeline.B(8, 1)}}

	// Resident: the engine over the replay model of the fabric.
	chks, err := CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []checkers.Property{storm, rejects} {
		info, err := p.Parse()
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.Compile(info, compiler.Options{Name: p.Key})
		if err != nil {
			t.Fatal(err)
		}
		chks = append(chks, engine.Checker{Name: p.Key, RT: &compiler.Runtime{Prog: prog}})
	}
	pkts, pairs := CampusEnginePackets(packets, seed)
	seq := engine.NewSequential(engine.Config{Checkers: chks})
	if err := ConfigureReplayEngine(seq.Install, pairs); err != nil {
		t.Fatal(err)
	}
	for _, sw := range replaySwitches {
		if err := seq.Install(storm.Key, sw.ID, func(st *pipeline.State) error { return st.Tables["armed"].Insert(armed) }); err != nil {
			t.Fatal(err)
		}
	}
	seq.ProcessBatch(pkts)
	resident := map[string][2]uint64{}
	for _, c := range seq.Counts().PerChecker {
		resident[c.Name] = [2]uint64{c.Rejected, c.Reports}
	}

	// Wire: the fabric, its reports counted off the bus.
	f := newCampusFabric(packets, seed)
	reported := map[string]uint64{}
	ctl, bus := f.controller(reportbus.Config{})
	bus.Tap(func(d reportbus.Digest) { reported[d.Checker]++ })
	if err := f.deployCorpus(ctl, true, storm, rejects); err != nil {
		t.Fatal(err)
	}
	if err := ctl.SetScalar(storm.Key, 0, "armed", 1); err != nil {
		t.Fatal(err)
	}
	f.schedule()
	f.sim.RunAll()
	bus.Close()
	if m := bus.Metrics(); m.Dropped != 0 {
		t.Fatalf("the fabric's bus dropped %d of %d digests", m.Dropped, m.Published)
	}
	wire := map[string][2]uint64{}
	for _, c := range chks {
		wire[c.Name] = [2]uint64{ctl.Rejected(c.Name), reported[c.Name]}
	}

	for side, totals := range map[string]map[string][2]uint64{"resident": resident, "wire": wire} {
		var rej, rep uint64
		for _, n := range totals {
			rej, rep = rej+n[0], rep+n[1]
		}
		if rej == 0 || rep == 0 {
			t.Errorf("%s side: %d rejects and %d reports over all checkers; the comparison needs both", side, rej, rep)
		}
	}
	for _, c := range chks {
		r, w := resident[c.Name], wire[c.Name]
		t.Logf("%-20s rejected %5d / %5d, reports %5d / %5d (resident / wire)", c.Name, r[0], w[0], r[1], w[1])
		if r != w {
			t.Errorf("%s: %s resident, %s on the wire", c.Name, counts(r), counts(w))
		}
	}
}

func counts(n [2]uint64) string { return fmt.Sprintf("%d rejects and %d reports", n[0], n[1]) }
