package compiler_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/indus/ast"
	"repro/internal/indus/eval"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// The differential harness lives in internal/difftest so the engine and
// conformance suites can reuse it; these aliases keep the scenario
// tests terse.
type hopSpec = difftest.HopSpec

func newHarness(t *testing.T, src string) *difftest.Harness { return difftest.NewHarness(t, src) }

func corpusHarness(t *testing.T, key string) *difftest.Harness { return difftest.CorpusHarness(t, key) }

// ---------------------------------------------------------------------------
// Differential scenarios over the corpus

func TestDiffMultiTenancy(t *testing.T) {
	h := corpusHarness(t, "multi-tenancy")
	for _, id := range []uint32{1, 2} {
		h.InstallDict(id, "tenants", []uint64{1}, 10)
		h.InstallDict(id, "tenants", []uint64{2}, 20)
		h.InstallDict(id, "tenants", []uint64{3}, 10)
	}
	if rej, _ := h.RunBoth([]hopSpec{
		{SW: 1, Headers: map[string]uint64{"in_port": 1, "eg_port": 9}},
		{SW: 2, Headers: map[string]uint64{"in_port": 9, "eg_port": 3}},
	}); rej {
		t.Fatal("same-tenant path must forward")
	}
	if rej, _ := h.RunBoth([]hopSpec{
		{SW: 1, Headers: map[string]uint64{"in_port": 1, "eg_port": 9}},
		{SW: 2, Headers: map[string]uint64{"in_port": 9, "eg_port": 2}},
	}); !rej {
		t.Fatal("cross-tenant path must reject")
	}
}

func TestDiffValleyFree(t *testing.T) {
	h := corpusHarness(t, "valley-free")
	for id, spine := range map[uint32]uint64{1: 0, 2: 0, 3: 1, 4: 1} {
		h.InstallScalar(id, "is_spine_switch", spine)
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 3}, {SW: 2}}); rej {
		t.Fatal("valley-free path rejected")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 3}, {SW: 2}, {SW: 4}, {SW: 1}}); !rej {
		t.Fatal("valley path must reject")
	}
}

func TestDiffStatefulFirewall(t *testing.T) {
	h := corpusHarness(t, "stateful-firewall")
	in, out := uint64(0x0a000001), uint64(0xc0a80101)
	for _, id := range []uint32{1, 2} {
		h.InstallDict(id, "allowed", []uint64{in, out}, 1)
	}
	hdrs := map[string]uint64{"ipv4_src": in, "ipv4_dst": out}
	rej, reports := h.RunBoth([]hopSpec{{SW: 1, Headers: hdrs}, {SW: 2, Headers: hdrs}})
	if rej {
		t.Fatal("allowed flow rejected")
	}
	if len(reports) != 1 || reports[0][0] != out || reports[0][1] != in {
		t.Fatalf("reverse-install report wrong: %v", reports)
	}

	back := map[string]uint64{"ipv4_src": out, "ipv4_dst": in}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 2, Headers: back}, {SW: 1, Headers: back}}); !rej {
		t.Fatal("unsolicited inbound flow must reject")
	}
}

func TestDiffLoopFreedom(t *testing.T) {
	h := corpusHarness(t, "loop-freedom")
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 3}, {SW: 4}}); rej {
		t.Fatal("loop-free path rejected")
	}
	rej, reports := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 1}})
	if !rej {
		t.Fatal("loop must reject")
	}
	if len(reports) != 1 || reports[0][0] != 1 {
		t.Fatalf("dup switch report: %v", reports)
	}
}

func TestDiffWaypointing(t *testing.T) {
	h := corpusHarness(t, "waypointing")
	for _, id := range []uint32{1, 2, 3} {
		h.InstallScalar(id, "waypoint_id", 2)
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 3}}); rej {
		t.Fatal("waypointed path rejected")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 3}}); !rej {
		t.Fatal("bypass must reject")
	}
}

func TestDiffEgressValidity(t *testing.T) {
	h := corpusHarness(t, "egress-validity")
	h.InstallSet(1, "allowed_eg_ports", 1)
	h.InstallSet(1, "allowed_eg_ports", 2)
	h.InstallSet(2, "allowed_eg_ports", 4)

	if rej, _ := h.RunBoth([]hopSpec{
		{SW: 1, Headers: map[string]uint64{"eg_port": 2}},
		{SW: 2, Headers: map[string]uint64{"eg_port": 4}},
	}); rej {
		t.Fatal("allowed egress rejected")
	}
	rej, reports := h.RunBoth([]hopSpec{
		{SW: 1, Headers: map[string]uint64{"eg_port": 3}},
		{SW: 2, Headers: map[string]uint64{"eg_port": 4}},
	})
	if !rej {
		t.Fatal("bad egress must reject")
	}
	if len(reports) != 1 || reports[0][0] != 1 || reports[0][1] != 3 {
		t.Fatalf("report: %v", reports)
	}
}

func TestDiffRoutingValidity(t *testing.T) {
	h := corpusHarness(t, "routing-validity")
	for id, leaf := range map[uint32]uint64{1: 1, 2: 1, 3: 0, 4: 0} {
		h.InstallScalar(id, "is_leaf", leaf)
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 3}, {SW: 2}}); rej {
		t.Fatal("leaf-spine-leaf rejected")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 3}, {SW: 2}}); !rej {
		t.Fatal("spine-first path must reject")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 3}, {SW: 1}}); !rej {
		t.Fatal("leaf in the middle must reject")
	}
}

func TestDiffVLANIsolation(t *testing.T) {
	h := corpusHarness(t, "vlan-isolation")
	h.InstallDict(1, "vlan_members", []uint64{100}, 1)
	h.InstallDict(2, "vlan_members", []uint64{100}, 1)
	h.InstallDict(3, "vlan_members", []uint64{200}, 1)

	v100 := map[string]uint64{"vlan_id": 100}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1, Headers: v100}, {SW: 2, Headers: v100}}); rej {
		t.Fatal("same-vlan path rejected")
	}
	// Switch 3 is not a member of VLAN 100.
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1, Headers: v100}, {SW: 3, Headers: v100}}); !rej {
		t.Fatal("non-member switch must reject")
	}
	// VLAN changes mid-path.
	if rej, _ := h.RunBoth([]hopSpec{
		{SW: 1, Headers: v100},
		{SW: 2, Headers: map[string]uint64{"vlan_id": 200}},
	}); !rej {
		t.Fatal("vlan change must reject")
	}
}

func TestDiffServiceChain(t *testing.T) {
	h := corpusHarness(t, "service-chain")
	for _, id := range []uint32{1, 2, 3, 4, 5} {
		h.InstallScalar(id, "src_switch", 1)
		h.InstallScalar(id, "dst_switch", 5)
		h.InstallScalar(id, "chain_len", 2)
		h.InstallDict(id, "chain_index", []uint64{2}, 1)
		h.InstallDict(id, "chain_index", []uint64{3}, 2)
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 3}, {SW: 5}}); rej {
		t.Fatal("in-order chain rejected")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 3}, {SW: 2}, {SW: 5}}); !rej {
		t.Fatal("out-of-order chain must reject")
	}
	if rej, _ := h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 5}}); !rej {
		t.Fatal("skipped waypoint must reject")
	}
	// A packet not starting at src_switch is out of scope: forward.
	if rej, _ := h.RunBoth([]hopSpec{{SW: 4}, {SW: 5}}); rej {
		t.Fatal("non-chain traffic must forward")
	}
}

func TestDiffSourceRoutingValidation(t *testing.T) {
	h := corpusHarness(t, "source-routing")
	ok := []hopSpec{
		{SW: 1, Headers: map[string]uint64{"sr_next": 1, "sr_valid": 1}},
		{SW: 3, Headers: map[string]uint64{"sr_next": 3, "sr_valid": 1}},
		{SW: 2, Headers: map[string]uint64{"sr_next": 2, "sr_valid": 1}},
	}
	if rej, _ := h.RunBoth(ok); rej {
		t.Fatal("valid source route rejected")
	}
	bad := []hopSpec{
		{SW: 1, Headers: map[string]uint64{"sr_next": 1, "sr_valid": 1}},
		{SW: 4, Headers: map[string]uint64{"sr_next": 3, "sr_valid": 1}}, // went to 4, route said 3
		{SW: 2, Headers: map[string]uint64{"sr_next": 2, "sr_valid": 1}},
	}
	if rej, _ := h.RunBoth(bad); !rej {
		t.Fatal("diverted packet must reject")
	}
}

// TestDiffFigure2LoadBalance runs the pedagogical Figure 2 program —
// telemetry arrays plus a lockstep multi-variable for loop in the
// checker — differentially, covering the loop-unrolling path.
func TestDiffFigure2LoadBalance(t *testing.T) {
	h := newHarness(t, checkers.LoadBalanceFig2Src)
	for _, id := range []uint32{1, 2} {
		h.InstallScalar(id, "left_port", 1)
		h.InstallScalar(id, "right_port", 2)
		h.InstallScalar(id, "thresh", 500)
		h.InstallDict(id, "is_uplink", []uint64{1}, 1)
		h.InstallDict(id, "is_uplink", []uint64{2}, 1)
	}
	// Build up imbalance on the left port; each trace snapshots the
	// loads at both hops, and once the difference exceeds the threshold
	// the checker's loop reports for every offending snapshot.
	var sawReport bool
	for i := 0; i < 4; i++ {
		_, reports := h.RunBoth([]hopSpec{
			{SW: 1, Headers: map[string]uint64{"eg_port": 1}, PktLen: 300},
			{SW: 2, Headers: map[string]uint64{"eg_port": 9}, PktLen: 300},
		})
		if len(reports) > 0 {
			sawReport = true
		}
	}
	if !sawReport {
		t.Fatal("figure 2 checker never reported the imbalance")
	}
}

func TestDiffLoadBalance(t *testing.T) {
	h := corpusHarness(t, "load-balance")
	for _, id := range []uint32{1, 2} {
		h.InstallScalar(id, "left_port", 1)
		h.InstallScalar(id, "right_port", 2)
		h.InstallScalar(id, "thresh", 500)
		h.InstallDict(id, "is_uplink", []uint64{1}, 1)
		h.InstallDict(id, "is_uplink", []uint64{2}, 1)
	}
	// Balanced: alternate packets across the two uplinks; the running
	// difference never exceeds the threshold.
	for i := 0; i < 4; i++ {
		port := uint64(1 + i%2)
		if _, reports := h.RunBoth([]hopSpec{
			{SW: 1, Headers: map[string]uint64{"eg_port": port}, PktLen: 400},
			{SW: 2, Headers: map[string]uint64{"eg_port": 9}, PktLen: 400},
		}); len(reports) != 0 {
			t.Fatalf("balanced load reported an imbalance: %v", reports)
		}
	}
	// Hammer the left port until the threshold trips.
	var reported bool
	for i := 0; i < 5; i++ {
		_, reports := h.RunBoth([]hopSpec{
			{SW: 1, Headers: map[string]uint64{"eg_port": 1}, PktLen: 400},
			{SW: 2, Headers: map[string]uint64{"eg_port": 9}, PktLen: 400},
		})
		if len(reports) > 0 {
			reported = true
		}
	}
	if !reported {
		t.Fatal("sustained imbalance never reported")
	}
}

func TestDiffAppFiltering(t *testing.T) {
	h := corpusHarness(t, "app-filtering")
	ue, app := uint64(0x0afa0001), uint64(0xc0a80505)
	const udp = 17
	// deny=1 for (ue, udp, app, 80), allow=2 for (ue, udp, app, 81)
	for _, id := range []uint32{1, 2} {
		h.InstallDict(id, "filtering_actions", []uint64{ue, udp, app, 80}, 1)
		h.InstallDict(id, "filtering_actions", []uint64{ue, udp, app, 81}, 2)
	}
	uplink := func(dport, dropped uint64) []hopSpec {
		hdrs := map[string]uint64{
			"inner_ipv4_is_valid": 1, "inner_udp_is_valid": 1, "inner_tcp_is_valid": 0,
			"ipv4_is_valid": 0, "tcp_is_valid": 0, "udp_is_valid": 0,
			"inner_ipv4_src": ue, "inner_ipv4_dst": app, "inner_ipv4_proto": udp,
			"inner_udp_dport": dport, "inner_tcp_dport": 0,
			"outer_ipv4_src": 0, "outer_ipv4_dst": 0, "outer_ipv4_proto": 0,
			"outer_tcp_sport": 0, "outer_udp_sport": 0,
			"to_be_dropped": dropped,
		}
		return []hopSpec{{SW: 1, Headers: hdrs}, {SW: 2, Headers: hdrs}}
	}

	// Denied app forwarded by the data plane: reject + report.
	rej, reports := h.RunBoth(uplink(80, 0))
	if !rej || len(reports) != 1 {
		t.Fatalf("deny violation: rej=%v reports=%v", rej, reports)
	}
	if reports[0][4] != 1 {
		t.Fatalf("report action = %d, want 1 (deny)", reports[0][4])
	}
	// Allowed app dropped by the data plane (the Figure 11 bug): report.
	rej, reports = h.RunBoth(uplink(81, 1))
	if rej || len(reports) != 1 {
		t.Fatalf("allow violation: rej=%v reports=%v", rej, reports)
	}
	if reports[0][4] != 2 {
		t.Fatalf("report action = %d, want 2 (allow)", reports[0][4])
	}
	// Allowed and forwarded: clean.
	rej, reports = h.RunBoth(uplink(81, 0))
	if rej || len(reports) != 0 {
		t.Fatalf("clean uplink: rej=%v reports=%v", rej, reports)
	}
	// Denied and dropped: data plane already enforcing, nothing to say.
	rej, reports = h.RunBoth(uplink(80, 1))
	if rej || len(reports) != 0 {
		t.Fatalf("enforced deny: rej=%v reports=%v", rej, reports)
	}
}

// TestDiffRandomTraces drives the multi-tenancy and loop-freedom
// checkers with randomized traces and states; both backends must agree
// on every packet.
func TestDiffRandomTraces(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}

	t.Run("multi-tenancy", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			h := corpusHarness(t, "multi-tenancy")
			for id := uint32(1); id <= 3; id++ {
				for port := uint64(0); port < 8; port++ {
					h.InstallDict(id, "tenants", []uint64{port}, uint64(rng.Intn(3)))
				}
			}
			n := rng.Intn(4) + 1
			trace := make([]hopSpec, n)
			for i := range trace {
				trace[i] = hopSpec{
					SW: uint32(rng.Intn(3) + 1),
					Headers: map[string]uint64{
						"in_port": uint64(rng.Intn(8)),
						"eg_port": uint64(rng.Intn(8)),
					},
				}
			}
			h.RunBoth(trace) // RunBoth fails the test on divergence
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("loop-freedom", func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			h := corpusHarness(t, "loop-freedom")
			n := rng.Intn(6) + 1
			trace := make([]hopSpec, n)
			for i := range trace {
				trace[i] = hopSpec{SW: uint32(rng.Intn(4) + 1)}
			}
			h.RunBoth(trace)
			return true
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompileCorpus compiles every corpus program and sanity-checks the
// generated IR shape.
func TestCompileCorpus(t *testing.T) {
	for _, p := range checkers.All {
		p := p
		t.Run(p.Key, func(t *testing.T) {
			info, err := p.Parse()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compiler.Compile(info, compiler.Options{Name: p.Key})
			if err != nil {
				t.Fatal(err)
			}
			// Each control var must be realized as a table, each sensor
			// as a register, each tele var as a telemetry field.
			if got, want := len(prog.Tables), len(info.Prog.DeclsOfKind(ast.KindControl)); got != want {
				t.Errorf("tables: got %d, want %d", got, want)
			}
			if got, want := len(prog.Registers), len(info.Prog.DeclsOfKind(ast.KindSensor)); got != want {
				t.Errorf("registers: got %d, want %d", got, want)
			}
			if got, want := len(prog.Tele), len(info.Prog.DeclsOfKind(ast.KindTele)); got != want {
				t.Errorf("tele fields: got %d, want %d", got, want)
			}
			if prog.TeleWireBits() <= 0 {
				t.Error("telemetry wire size must be positive")
			}
		})
	}
}

// TestPerHopChecking exercises the §4.3 variant: with CheckEveryHop the
// loop checker rejects as soon as the revisit happens, not only at the
// edge.
func TestPerHopChecking(t *testing.T) {
	info := checkers.MustParse("loop-freedom")
	prog, err := compiler.Compile(info, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := difftest.Link(&compiler.Runtime{Prog: prog, CheckEveryHop: true})
	if err != nil {
		t.Fatal(err)
	}
	st := prog.NewState()

	var blob []byte
	// Hops: 1, 2, 1(loop!), 3 — with per-hop checking the third hop
	// already rejects.
	ids := []uint32{1, 2, 1, 3}
	var rejectedAt = -1
	for i, id := range ids {
		hr, err := vm.RunHop(blob, difftest.HopEnv{State: st, SwitchID: id, PacketLen: 100}, i == 0, i == len(ids)-1)
		if err != nil {
			t.Fatal(err)
		}
		blob = hr.Blob
		if hr.Reject && rejectedAt == -1 {
			rejectedAt = i
		}
	}
	if rejectedAt != 2 {
		t.Fatalf("per-hop checking rejected at hop %d, want 2", rejectedAt)
	}
}

// TestTelemetryBlobRoundTrip checks that the packed blob carries all
// telemetry faithfully between hops.
func TestTelemetryBlobRoundTrip(t *testing.T) {
	info := checkers.MustParse("source-routing")
	prog, err := compiler.Compile(info, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	phv := pipeline.PHV{}
	if err := prog.DecodeTele(nil, phv); err != nil {
		t.Fatal(err)
	}
	phv.Set(pipeline.FieldHops, pipeline.B(8, 3))
	phv.Set(pipeline.ArrayCount("hydra_header.actual_path"), pipeline.B(8, 2))
	phv.Set(pipeline.ArraySlot("hydra_header.actual_path", 0), pipeline.B(32, 0xdeadbeef))
	phv.Set(pipeline.ArraySlot("hydra_header.actual_path", 1), pipeline.B(32, 7))
	phv.Set(pipeline.FieldRef("hydra_header.mismatch"), pipeline.B(1, 1))

	blob := prog.EncodeTele(phv)
	phv2 := pipeline.PHV{}
	if err := prog.DecodeTele(blob, phv2); err != nil {
		t.Fatal(err)
	}
	for _, f := range []pipeline.FieldRef{
		pipeline.FieldHops,
		pipeline.ArrayCount("hydra_header.actual_path"),
		pipeline.ArraySlot("hydra_header.actual_path", 0),
		pipeline.ArraySlot("hydra_header.actual_path", 1),
		"hydra_header.mismatch",
	} {
		if phv.Get(f).V != phv2.Get(f).V {
			t.Errorf("field %s: %d != %d", f, phv.Get(f).V, phv2.Get(f).V)
		}
	}
	wantBits := prog.TeleWireBits()
	if len(blob) != (wantBits+7)/8 {
		t.Errorf("blob is %d bytes, want %d bits rounded up", len(blob), wantBits)
	}
}

// TestDiffDynamicArrayIndexing covers the runtime-indexed header-stack
// paths: a write through a variable index (SetSlotOp) and a read through
// a variable index (the unrolled mux chain of P4-16 conditionals).
func TestDiffDynamicArrayIndexing(t *testing.T) {
	src := `
tele bit<32>[4] xs;
tele bit<8> idx;
tele bit<32> got;
header bit<8> which;
{ }
{
  idx = which;
  xs[idx] = switch_id;
  got = xs[idx];
  xs[idx] += 1;
}
{
  if (xs[2] == 0 && got == 0) { reject; }
}
`
	h := newHarness(t, src)
	for _, which := range []uint64{0, 1, 2, 3, 7} { // 7 is out of range: dropped write, zero read
		h.RunBoth([]hopSpec{
			{SW: 5, Headers: map[string]uint64{"which": which}},
			{SW: 6, Headers: map[string]uint64{"which": which}},
		})
	}
}

// TestDiffHopCountInInit pins the init-block hop_count semantics: the
// init block runs before the telemetry block's increment, so the
// compiler reads hop_count+1 there to match the interpreter.
func TestDiffHopCountInInit(t *testing.T) {
	src := `
tele bit<8> at_init;
tele bit<8> at_tele;
tele bit<8> at_check;
{ at_init = hop_count; }
{ at_tele = hop_count; }
{ at_check = hop_count; }
`
	h := newHarness(t, src)
	_, _ = h.RunBoth([]hopSpec{{SW: 1}, {SW: 2}, {SW: 3}})

	// And the concrete values: init sees 1, last telemetry/checker see 3.
	info := h.Info()
	m := eval.New(info)
	out, err := m.RunTrace([]eval.Hop{
		{Switch: eval.NewSwitchState(1), PacketLen: 1},
		{Switch: eval.NewSwitchState(2), PacketLen: 1},
		{Switch: eval.NewSwitchState(3), PacketLen: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Tele["at_init"].Equal(eval.NewBit(8, 1)) {
		t.Fatalf("at_init = %v, want 1", out.Tele["at_init"])
	}
	if !out.Tele["at_tele"].Equal(eval.NewBit(8, 3)) || !out.Tele["at_check"].Equal(eval.NewBit(8, 3)) {
		t.Fatalf("at_tele/at_check = %v/%v, want 3/3", out.Tele["at_tele"], out.Tele["at_check"])
	}
}

// TestAlignedTelemetryEncoding pins the DESIGN.md ablation: the aligned
// encoding round-trips identically to the packed one but costs more
// wire bytes whenever a program carries sub-byte or odd-width fields.
func TestAlignedTelemetryEncoding(t *testing.T) {
	info := checkers.MustParse("valley-free") // two booleans: 10 bits packed
	packed := compiler.MustCompile(info, compiler.Options{Name: "vf"})
	aligned := compiler.MustCompile(info, compiler.Options{Name: "vf", AlignedTele: true})

	if p, a := packed.TeleWireBits(), aligned.TeleWireBits(); a <= p {
		t.Fatalf("aligned (%d bits) should exceed packed (%d bits)", a, p)
	}

	// Differential run under the aligned encoding: verdicts unchanged.
	vmA, err := difftest.Link(&compiler.Runtime{Prog: aligned})
	if err != nil {
		t.Fatal(err)
	}
	stA := aligned.NewState()
	if err := stA.Tables["is_spine_switch"].Insert(pipeline.Entry{
		Action: []pipeline.Value{pipeline.B(1, 1)},
	}); err != nil {
		t.Fatal(err)
	}
	// Two spine hops on the same (spine-configured) state: reject.
	res, err := vmA.RunTrace([][]difftest.HopEnv{{
		{State: stA, SwitchID: 3, PacketLen: 100},
		{State: stA, SwitchID: 4, PacketLen: 100},
	}}, difftest.Wire)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Reject {
		t.Fatal("aligned encoding changed the verdict")
	}

	// Blob round trip under alignment.
	phv := pipeline.PHV{}
	if err := aligned.DecodeTele(nil, phv); err != nil {
		t.Fatal(err)
	}
	phv.Set(pipeline.FieldHops, pipeline.B(8, 2))
	phv.Set(pipeline.FieldRef("hydra_header.visited_spine"), pipeline.B(1, 1))
	blob := aligned.EncodeTele(phv)
	if len(blob) != (aligned.TeleWireBits()+7)/8 {
		t.Fatalf("aligned blob is %d bytes, want %d bits rounded up", len(blob), aligned.TeleWireBits())
	}
	phv2 := pipeline.PHV{}
	if err := aligned.DecodeTele(blob, phv2); err != nil {
		t.Fatal(err)
	}
	if phv2.Get("hydra_header.visited_spine").V != 1 || phv2.Get(pipeline.FieldHops).V != 2 {
		t.Fatal("aligned round trip lost fields")
	}
}

// TestRuntimeVMErr: a program the bytecode VM refuses keeps its compile
// error on the Runtime instead of silently degrading to "no VM form"; a
// compilable program reports nil.
func TestRuntimeVMErr(t *testing.T) {
	broken := &pipeline.Program{Name: "broken", Telemetry: []pipeline.Op{pipeline.ApplyOp{Table: "undeclared"}}}
	rt := &compiler.Runtime{Prog: broken}
	if rt.VM() != nil {
		t.Fatal("VM() of an uncompilable program is non-nil")
	}
	if err := rt.VMErr(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("VMErr() = %v, want the undeclared-table error", err)
	}
	ok := &compiler.Runtime{Prog: &pipeline.Program{Name: "ok"}}
	if ok.VM() == nil || ok.VMErr() != nil {
		t.Fatalf("compilable program: VM() nil=%v VMErr()=%v", ok.VM() == nil, ok.VMErr())
	}
}

// TestKeyWiderThanFourWordsRefused: a dict or set key whose columns do
// not pack into a table's four 64-bit key words is refused where it is
// declared — the error carries the declaration's line — and no table
// falls back to another store for it.
func TestKeyWiderThanFourWordsRefused(t *testing.T) {
	for _, decl := range []string{
		"control dict<(bit<64>,bit<64>,bit<64>,bit<64>,bit<8>),bit<8>> big;",
		"control set<(bit<64>,bit<64>,bit<64>,bit<64>,bit<8>)> big;",
	} {
		src := "header bit<8> a;\n" + decl + "\ntele bit<8> t = 0;\n{ }\n{ }\n{ }\n"
		prog, err := parser.Parse("big", src)
		if err != nil {
			t.Fatalf("%s: parse: %v", decl, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("%s: types: %v", decl, err)
		}
		_, err = compiler.Compile(info, compiler.Options{})
		if err == nil || !strings.Contains(err.Error(), "big:2:") || !strings.Contains(err.Error(), `"big"`) {
			t.Errorf("%s: error %v, want one at line 2 naming the control", decl, err)
		}
	}
}
