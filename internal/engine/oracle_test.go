package engine_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/dataplane"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/pipeline"
)

// installFn is the Install signature of Engine, Sequential and the
// oracle below; experiments.ConfigureReplayEngine drives any of them.
type installFn = func(checker string, switchID uint32, fn func(*pipeline.State) error) error

// oracle is the engine's reference semantics, and shares no execution
// code with it: per checker and switch one pipeline.State, every packet
// replayed hop-major through the map interpreter
// (difftest.Reference.RunHop, telemetry carried as the wire blob),
// halting after the first hop at which any checker rejected.
type oracle struct {
	t        *testing.T
	chks     []engine.Checker
	refs     []*difftest.Reference
	states   []map[uint32]*pipeline.State
	counts   engine.Counts
	verdicts []engine.Verdict
	reports  []reportKey
}

func newOracle(t *testing.T, chks []engine.Checker, nPkts int) *oracle {
	o := &oracle{
		t:        t,
		chks:     chks,
		refs:     make([]*difftest.Reference, len(chks)),
		states:   make([]map[uint32]*pipeline.State, len(chks)),
		counts:   engine.Counts{PerChecker: make([]engine.CheckerCounts, len(chks))},
		verdicts: make([]engine.Verdict, nPkts),
	}
	for i, c := range chks {
		o.states[i] = map[uint32]*pipeline.State{}
		o.counts.PerChecker[i].Name = c.Name
		o.refs[i] = &difftest.Reference{Prog: c.RT.Prog, CheckEveryHop: c.RT.CheckEveryHop}
	}
	return o
}

func (o *oracle) state(i int, switchID uint32) *pipeline.State {
	st, ok := o.states[i][switchID]
	if !ok {
		st = o.chks[i].RT.Prog.NewState()
		o.states[i][switchID] = st
	}
	return st
}

func (o *oracle) Install(checker string, switchID uint32, fn func(*pipeline.State) error) error {
	for i, c := range o.chks {
		if c.Name == checker {
			return fn(o.state(i, switchID))
		}
	}
	return fmt.Errorf("oracle: unknown checker %q", checker)
}

// oracleHeaders is what a 5-tuple record exposes to a checker at one hop,
// keyed by annotation path: the headers of the plain frame the record
// describes — Ethernet, IPv4, the transport header its protocol names.
// Every layer's validity bit is bound; a field of a layer that frame does
// not carry (the other transport's ports, everything of the zero key's
// non-IPv4 frame, VLAN, tunnel, source route) is a missing key, absent.
func oracleHeaders(p *engine.Packet, hop engine.Hop) map[string]pipeline.Value {
	k := p.Key
	h := map[string]pipeline.Value{
		"standard_metadata.ingress_port":  pipeline.B(8, uint64(hop.InPort)),
		"standard_metadata.egress_port":   pipeline.B(8, uint64(hop.OutPort)),
		"fabric_metadata.skip_forwarding": pipeline.BoolV(false),
		"hdr.ipv4.$valid$":                pipeline.BoolV(k != (dataplane.FlowKey{})),
		"hdr.tcp.$valid$":                 pipeline.BoolV(k.Proto == dataplane.ProtoTCP),
		"hdr.udp.$valid$":                 pipeline.BoolV(k.Proto == dataplane.ProtoUDP),
		"hdr.inner_ipv4.$valid$":          pipeline.BoolV(false),
		"hdr.inner_tcp.$valid$":           pipeline.BoolV(false),
		"hdr.inner_udp.$valid$":           pipeline.BoolV(false),
		"hdr.srcRoutes[0].$valid$":        pipeline.BoolV(false),
	}
	if k != (dataplane.FlowKey{}) {
		h["hdr.ipv4.src_addr"] = pipeline.B(32, uint64(k.Src))
		h["hdr.ipv4.dst_addr"] = pipeline.B(32, uint64(k.Dst))
		h["hdr.ipv4.protocol"] = pipeline.B(8, uint64(k.Proto))
	}
	for proto, l4 := range map[uint8]string{dataplane.ProtoTCP: "tcp", dataplane.ProtoUDP: "udp"} {
		if k.Proto == proto {
			h["hdr."+l4+".sport"] = pipeline.B(16, uint64(k.Sport))
			h["hdr."+l4+".dport"] = pipeline.B(16, uint64(k.Dport))
		}
	}
	return h
}

func (o *oracle) process(p *engine.Packet) {
	o.counts.Packets++
	blobs := make([][]byte, len(o.chks))
	reject := false
	var nReports int32
	for h, hop := range p.Hops {
		hdrs := oracleHeaders(p, hop)
		for i, rt := range o.refs {
			hr, err := rt.RunHop(blobs[i], difftest.HopEnv{
				State: o.state(i, hop.SwitchID), SwitchID: hop.SwitchID, Headers: hdrs, PacketLen: p.Len,
			}, h == 0, h == len(p.Hops)-1)
			if err != nil {
				o.t.Fatalf("oracle: %s at switch %d: %v", o.chks[i].Name, hop.SwitchID, err)
			}
			blobs[i] = hr.Blob
			for _, r := range hr.Reports {
				args := make([]uint64, len(r.Args))
				for j, a := range r.Args {
					args[j] = a.V
				}
				o.reports = append(o.reports, keyOf(o.chks[i].Name, hop.SwitchID, args))
			}
			n := uint64(len(hr.Reports))
			o.counts.Reports += n
			o.counts.PerChecker[i].Reports += n
			nReports += int32(n)
			if hr.Reject {
				reject = true
				o.counts.PerChecker[i].Rejected++
			}
		}
		if reject {
			break
		}
	}
	if reject {
		o.counts.Rejected++
	} else {
		o.counts.Forwarded++
	}
	if p.Index >= 0 {
		o.verdicts[p.Index] = engine.Verdict{Reject: reject, Reports: nReports}
	}
}

// seenCells sums the `seen` sensor of one checker per switch over every
// state replica the install function reaches (one per shard).
func seenCells(t *testing.T, install installFn, checker string) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for _, sw := range experiments.ReplaySwitchInfos() {
		err := install(checker, sw.ID, func(st *pipeline.State) error {
			out[sw.ID] += st.Registers["seen"].Read(0)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// hopCounter is a last-hop checker that leaves a trace at every hop it
// runs at: one sensor increment and one digest from its telemetry
// block. A hop the packet never reached is visible as a missing
// increment and a missing digest.
const hopCounterSrc = `
sensor bit<32> seen = 0;
{ }
{
  seen += 1;
  report(switch_id);
}
{ }
`

// perHopWaypointSrc is waypointing checked at every hop (§4.3): past
// its ingress switch a packet must have visited the waypoint, so a
// packet routed round it is rejected mid-path, at its second hop.
const perHopWaypointSrc = `
control bit<32> waypoint_id;
sensor bit<32> seen = 0;
tele bool visited_waypoint = false;
{ }
{
  seen += 1;
  report(switch_id);
  if (switch_id == waypoint_id) {
    visited_waypoint = true;
  }
}
{
  if (!first_hop && !visited_waypoint) {
    reject;
    report(switch_id);
  }
}
`

// installWaypoint names the waypoint switch to per-hop-waypoint on every
// replay switch.
func installWaypoint(in installFn, waypoint uint64) error {
	for _, sw := range experiments.ReplaySwitchInfos() {
		err := in("per-hop-waypoint", sw.ID, func(st *pipeline.State) error {
			return st.Tables["waypoint_id"].Insert(pipeline.Entry{Action: []pipeline.Value{pipeline.B(32, waypoint)}})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func compileSrc(t *testing.T, key, src string) *pipeline.Program {
	t.Helper()
	info, err := checkers.Property{Key: key, Source: src}.Parse()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func corpus(t *testing.T) []engine.Checker {
	t.Helper()
	chks, err := experiments.CorpusCheckers()
	if err != nil {
		t.Fatal(err)
	}
	return chks
}

// TestEngineMatchesOracle compares the engine — every checker linked
// into one bytecode.Set — with the oracle above, which runs them one by
// one, on per-packet verdicts, Counts (per checker included) and the
// sorted multiset of digests the engine published on its report bus, for
// every way of driving the one execution loop: Sequential.Process, and
// sharded workers at 1/2/3/4/8 shards (3: a shard count that is not a
// power of two) with dispatch batches of 1 and 64.
func TestEngineMatchesOracle(t *testing.T) {
	const spine3, spine4 = 3, 4
	campus, pairs := experiments.CampusEnginePackets(3000, 9)
	viaSpine4 := func(c engine.Counts) bool {
		// Campus flows are ECMP-pinned to one of two spines; both halves
		// must be populated for the halting rows to mean anything.
		return c.Rejected > 0 && c.Forwarded > 0
	}
	none := func(installFn) error { return nil }

	perHop := compileSrc(t, "per-hop-waypoint", perHopWaypointSrc)

	// Indus refuses `reject` outside the checker block, so the program
	// that rejects from its telemetry block is finished as IR.
	teleReject := compileSrc(t, "tele-reject", hopCounterSrc)
	teleReject.Telemetry = append(teleReject.Telemetry, pipeline.IfOp{
		Cond: pipeline.Bin{Op: pipeline.OpEq, X: pipeline.Field{Ref: pipeline.FieldSwitch, Width: 32}, Y: pipeline.C(32, spine4)},
		Then: []pipeline.Op{pipeline.AssignOp{Dst: pipeline.FieldReject, DstWidth: 1, Src: pipeline.C(1, 1)}},
	})

	cases := []struct {
		name      string
		chks      []engine.Checker
		configure func(installFn) error
		// reference, when set, configures the oracle instead: the same
		// state through configurePlain, so the oracle's tables never adopt
		// one another and it keeps sharing no mechanism with the engine.
		reference func(installFn) error
		pkts      []engine.Packet
		// seen names a checker whose `seen` sensor is compared per switch.
		seen string
		// sane rejects a vacuous row by looking at the oracle's outcome.
		sane func(o *oracle) bool
	}{
		{
			name: "campus", chks: corpus(t), pkts: campus,
			configure: func(in installFn) error { return experiments.ConfigureReplayEngine(in, pairs) },
			reference: func(in installFn) error { return configurePlain(in, pairs) },
			sane: func(o *oracle) bool {
				return o.counts.Forwarded == o.counts.Packets
			},
		},
		{
			name: "violations", chks: corpus(t), pkts: violationWorkload(600),
			configure: func(in installFn) error { return experiments.ConfigureReplayEngine(in, nil) },
			reference: func(in installFn) error { return configurePlain(in, nil) },
			sane: func(o *oracle) bool {
				return o.counts.Rejected == o.counts.Packets && o.counts.Reports > 0
			},
		},
		{
			// Packets pinned to spine 4 never visit waypoint spine 3 and
			// are rejected at the spine; the egress leaf must see neither
			// their sensor increment nor their telemetry digest.
			name: "check-every-hop",
			chks: []engine.Checker{{Name: "per-hop-waypoint", RT: &compiler.Runtime{Prog: perHop, CheckEveryHop: true}}},
			pkts: campus, seen: "per-hop-waypoint",
			configure: func(in installFn) error { return installWaypoint(in, spine3) },
			sane: func(o *oracle) bool {
				return viaSpine4(o.counts) && seenCells(o.t, o.Install, "per-hop-waypoint")[2] == o.counts.Forwarded
			},
		},
		{
			name: "telemetry-reject",
			chks: []engine.Checker{{Name: "tele-reject", RT: &compiler.Runtime{Prog: teleReject}}},
			pkts: campus, seen: "tele-reject", configure: none,
			sane: func(o *oracle) bool {
				return viaSpine4(o.counts) && seenCells(o.t, o.Install, "tele-reject")[2] == o.counts.Forwarded
			},
		},
		{
			// Checker placements mixed in one linked set: the every-hop
			// waypoint checker sits between last-hop corpus checkers and
			// rejects spine-4 packets at the spine, so the hop counter
			// linked after everything must not see them at the egress leaf.
			name: "mixed-placement",
			chks: slices.Concat(corpus(t)[:6],
				[]engine.Checker{{Name: "per-hop-waypoint", RT: &compiler.Runtime{Prog: perHop, CheckEveryHop: true}}},
				corpus(t)[6:],
				[]engine.Checker{{Name: "hop-counter", RT: &compiler.Runtime{Prog: compileSrc(t, "hop-counter", hopCounterSrc)}}}),
			pkts: campus, seen: "hop-counter",
			configure: func(in installFn) error {
				if err := experiments.ConfigureReplayEngine(in, pairs); err != nil {
					return err
				}
				return installWaypoint(in, spine3)
			},
			reference: func(in installFn) error {
				if err := configurePlain(in, pairs); err != nil {
					return err
				}
				return installWaypoint(in, spine3)
			},
			sane: func(o *oracle) bool {
				return viaSpine4(o.counts) && seenCells(o.t, o.Install, "hop-counter")[2] == o.counts.Forwarded
			},
		},
	}

	type driver struct{ shards, batch int } // shards 0: Sequential.Process
	drivers := []driver{{0, 1}}
	for _, shards := range []int{1, 2, 3, 4, 8} {
		for _, batch := range []int{1, 64} {
			drivers = append(drivers, driver{shards, batch})
		}
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := newOracle(t, tc.chks, len(tc.pkts))
			if tc.reference == nil {
				tc.reference = tc.configure
			}
			if err := tc.reference(want.Install); err != nil {
				t.Fatal(err)
			}
			for i := range tc.pkts {
				want.process(&tc.pkts[i])
			}
			if !tc.sane(want) {
				t.Fatalf("vacuous row: oracle counts %+v", want.counts)
			}
			wantReports := sortedReports(want.reports)

			for _, d := range drivers {
				verdicts := make([]engine.Verdict, len(tc.pkts))
				// Every shard's ring holds the whole run's digests.
				tap := newReportTap(len(want.reports))
				cfg := engine.Config{
					Shards: d.shards, BatchSize: d.batch,
					Checkers: tc.chks, Verdicts: verdicts, ReportBus: tap.bus,
				}
				var (
					counts  engine.Counts
					install installFn
				)
				if d.shards == 0 {
					seq := engine.NewSequential(cfg)
					if err := tc.configure(seq.Install); err != nil {
						t.Fatal(err)
					}
					for i := range tc.pkts {
						seq.Process(tc.pkts[i])
					}
					counts, install = seq.Counts(), seq.Install
				} else {
					eng := engine.New(cfg)
					if err := tc.configure(eng.Install); err != nil {
						t.Fatal(err)
					}
					for i := range tc.pkts {
						eng.Submit(tc.pkts[i])
					}
					counts, install = eng.Drain(), eng.Install
				}
				reports := digestKeys(t, tap.digests(t))
				label := fmt.Sprintf("shards=%d batch=%d", d.shards, d.batch)
				if !reflect.DeepEqual(counts, want.counts) {
					t.Errorf("%s: counts diverge from the oracle\n got %+v\nwant %+v", label, counts, want.counts)
				}
				for i := range verdicts {
					if verdicts[i] != want.verdicts[i] {
						t.Errorf("%s: packet %d verdict %+v, oracle %+v", label, i, verdicts[i], want.verdicts[i])
						break
					}
				}
				if !reflect.DeepEqual(sortedReports(reports), wantReports) {
					t.Errorf("%s: report multiset diverges from the oracle (%d vs %d digests)", label, len(reports), len(wantReports))
				}
				// One state set sees packets in submission order and one ring
				// carries its digests: there the stream itself — hop, then
				// checker, then program order — is the oracle's.
				if d.shards <= 1 && !reflect.DeepEqual(reports, want.reports) {
					t.Errorf("%s: report stream order diverges from the oracle", label)
				}
				if tc.seen != "" {
					got, ref := seenCells(t, install, tc.seen), seenCells(t, want.Install, tc.seen)
					if !reflect.DeepEqual(got, ref) {
						t.Errorf("%s: per-switch sensor writes %v, oracle %v", label, got, ref)
					}
				}
			}
		})
	}
}

// TestPacketIndexOutOfRange: a packet whose Index does not name a slot
// of Config.Verdicts is still counted and checked; it records no
// verdict and must not panic the shard goroutine.
func TestPacketIndexOutOfRange(t *testing.T) {
	pkts := violationWorkload(6)
	pkts[1].Index = -1
	pkts[2].Index = int32(len(pkts))
	pkts[3].Index = 1 << 30
	for _, shards := range []int{0, 2} {
		verdicts := make([]engine.Verdict, len(pkts))
		cfg := engine.Config{Shards: shards, Checkers: corpus(t), Verdicts: verdicts}
		var counts engine.Counts
		if shards == 0 {
			seq := engine.NewSequential(cfg)
			for i := range pkts {
				seq.Process(pkts[i])
			}
			counts = seq.Counts()
		} else {
			eng := engine.New(cfg)
			for i := range pkts {
				eng.Submit(pkts[i])
			}
			counts = eng.Drain()
		}
		if counts.Packets != 6 || counts.Rejected != 6 {
			t.Errorf("shards=%d: counts %+v, want 6 packets all rejected", shards, counts)
		}
		for i, v := range verdicts {
			if recorded := i == 0 || i >= 4; v.Reject != recorded {
				t.Errorf("shards=%d: verdict slot %d = %+v, recorded should be %v", shards, i, v, recorded)
			}
		}
	}
}

// headerProbeSrc reports at every hop what it reads of the per-pass paths
// (the ports, skip_forwarding, a program-specific path nothing supplies)
// and of the flow's headers, carries the first hop's TCP port in
// telemetry, and rejects at the last hop on a header value: a slot
// holding the previous packet's header, the previous hop's port or a
// restored zero shows in a report or a verdict.
const headerProbeSrc = `
tele bit<16> first_dport = 0;
header bit<8> in_port @ "standard_metadata.ingress_port";
header bit<8> eg_port @ "standard_metadata.egress_port";
header bool skip @ "fabric_metadata.skip_forwarding";
header bit<16> custom @ "fabric_metadata.custom";
header bool ip_ok @ "hdr.ipv4.$valid$";
header bit<32> src @ "hdr.ipv4.src_addr";
header bit<8> proto @ "hdr.ipv4.protocol";
header bool tcp_ok @ "hdr.tcp.$valid$";
header bit<16> tcp_dport @ "hdr.tcp.dport";
header bool udp_ok @ "hdr.udp.$valid$";
header bit<16> udp_sport @ "hdr.udp.sport";
header bit<16> udp_dport @ "hdr.udp.dport";

{ first_dport = tcp_dport; }
{
  report((in_port, eg_port, skip, custom));
  report((ip_ok, src, proto, tcp_ok, tcp_dport));
  report((udp_ok, udp_sport, udp_dport, first_dport));
}
{
  if (udp_ok && udp_sport % 2 == 1) {
    reject;
  }
}
`

// TestEngineHeaderAbsence runs one Sequential shard over packets whose
// keys cycle through TCP, UDP and the zero (non-IPv4) key, on 1-, 2- and
// 3-hop paths whose every hop has its own ports, and holds every verdict,
// count and report to the map reference run hop by hop (the oracle). The
// shard's fill writes the flow's headers once a packet and the ports at
// every hop, and nothing restores a header between hops: a fill that
// skipped an absent header would show the previous flow's, ports stored
// only at the first hop would show at the next, and header slots reset
// per hop would read zero past the first.
func TestEngineHeaderAbsence(t *testing.T) {
	chks := []engine.Checker{{Name: "header-probe", RT: &compiler.Runtime{Prog: compileSrc(t, "header-probe", headerProbeSrc)}}}
	var pkts []engine.Packet
	for i := 0; i < 36; i++ {
		var key dataplane.FlowKey
		if proto := []uint8{dataplane.ProtoTCP, dataplane.ProtoUDP, 0}[i%3]; proto != 0 {
			key = dataplane.FlowKey{Src: dataplane.IP4(0x0a000001 + uint32(i)), Dst: dataplane.IP4(0x0a000100), Proto: proto,
				Sport: uint16(1000 + i), Dport: uint16(2000 + 7*i)}
		}
		hops := make([]engine.Hop, 1+i/3%3)
		for h := range hops {
			hops[h] = engine.Hop{SwitchID: uint32(h + 1), InPort: uint16(10*h + i%4 + 1), OutPort: uint16(10*h + i%5 + 2)}
		}
		pkts = append(pkts, engine.Packet{Key: key, Len: 200, Index: int32(i), Hops: hops})
	}

	want := newOracle(t, chks, len(pkts))
	for i := range pkts {
		want.process(&pkts[i])
	}
	if want.counts.Rejected == 0 || want.counts.Forwarded == 0 {
		t.Fatalf("vacuous workload: oracle counts %+v", want.counts)
	}

	verdicts := make([]engine.Verdict, len(pkts))
	tap := newReportTap(len(want.reports))
	seq := engine.NewSequential(engine.Config{Checkers: chks, Verdicts: verdicts, ReportBus: tap.bus})
	seq.ProcessBatch(pkts)
	if got := seq.Counts(); !reflect.DeepEqual(got, want.counts) {
		t.Errorf("counts diverge from the oracle\n got %+v\nwant %+v", got, want.counts)
	}
	for i := range verdicts {
		if verdicts[i] != want.verdicts[i] {
			t.Errorf("packet %d (%+v, %d hops): verdict %+v, oracle %+v", i, pkts[i].Key, len(pkts[i].Hops), verdicts[i], want.verdicts[i])
		}
	}
	got := digestKeys(t, tap.digests(t))
	for i := range min(len(got), len(want.reports)) {
		if got[i] != want.reports[i] {
			t.Fatalf("report %d: %+v, oracle %+v", i, got[i], want.reports[i])
		}
	}
	if len(got) != len(want.reports) {
		t.Fatalf("%d reports, oracle %d", len(got), len(want.reports))
	}
}
