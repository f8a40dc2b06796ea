package difftest_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/indus/ast"
	"repro/internal/pipeline"
	"repro/internal/reportbus"
	"repro/internal/symexec"
)

// aliasEnvs renders a golden trace as hop environments over the given
// states; dirt flips every header value (a different flow of the same
// shape).
func aliasEnvs(comp *difftest.Compiled, trace []difftest.HopSpec, states map[uint32]*pipeline.State, dirt bool) []difftest.HopEnv {
	out := make([]difftest.HopEnv, len(trace))
	for i, hs := range trace {
		pktLen := hs.PktLen
		if pktLen == 0 {
			pktLen = 100
		}
		headers := map[string]pipeline.Value{}
		for name, v := range hs.Headers {
			w := 1
			if bt, ok := comp.Info.Decls[name].Type.(ast.BitType); ok {
				w = bt.Width
			}
			if dirt {
				v = ^v
			}
			headers[comp.Prog.HeaderBindings[name]] = pipeline.B(w, v)
		}
		out[i] = difftest.HopEnv{
			State:     states[hs.SW],
			SwitchID:  hs.SW,
			Headers:   headers,
			PacketLen: pktLen,
		}
	}
	return out
}

// aliasCase is one corpus checker of the aliasing suites: its compiled
// form, a source of pristine model states, and a set of one to poison.
type aliasCase struct {
	comp   *difftest.Compiled
	states func() map[uint32]*pipeline.State
	link   func() *difftest.Linked
}

func newAliasCase(t *testing.T, key string) aliasCase {
	comp, err := difftest.CompileCorpus(key)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	model := checkers.SymModelFor(key)
	return aliasCase{
		comp: comp,
		states: func() map[uint32]*pipeline.State {
			states, err := symexec.BuildStates(comp.Prog, model)
			if err != nil {
				t.Fatalf("build states: %v", err)
			}
			return states
		},
		link: func() *difftest.Linked {
			vm, err := difftest.Link(&compiler.Runtime{Prog: comp.Prog})
			if err != nil {
				t.Fatal(err)
			}
			return vm
		},
	}
}

// poison writes all-ones garbage into every slot the VM can write
// (DirtySlots) and bumps the counters: the worst dirt a previous
// execution could leave on a context that is never re-templated.
func poison(vm *difftest.Linked) {
	c := vm.Ctx
	for _, s := range vm.Set.DirtySlots() {
		c.PHV[s] = ^uint64(0)
	}
	c.OpsExecuted += 997
	c.TableApplies += 31
}

func diffAliased(t *testing.T, label string, got, want difftest.TraceResult) {
	t.Helper()
	if got.Reject != want.Reject {
		t.Errorf("%s: reject %v on the poisoned context, %v on the reference", label, got.Reject, want.Reject)
	}
	if !bytes.Equal(got.FinalBlob, want.FinalBlob) {
		t.Errorf("%s: final blob %x on the poisoned context, %x on the reference", label, got.FinalBlob, want.FinalBlob)
	}
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Errorf("%s: reports %+v on the poisoned context, %+v on the reference", label, got.Reports, want.Reports)
	}
}

// TestResidentHopAliasing is the aliasing suite for the per-hop wire
// path netsim runs: every corpus checker threads its golden traces hop
// by hop through Linked.Pass — a set of one on ONE resident context,
// never released, never re-templated, the blob rewritten in place —
// with every slot the VM can write poisoned before each hop and foreign
// dirt traces interleaved so the report arena carries another flow.
// Outcomes must be byte-identical to the map reference on pristine
// state: the blob decode plus BeginHop's reset
// runs must erase every poisoned slot an execution could observe, and
// each pass's Stage.Run every report of the pass before.
func TestResidentHopAliasing(t *testing.T) {
	for _, gt := range goldenTraces {
		gt := gt
		t.Run(gt.key, func(t *testing.T) {
			ac := newAliasCase(t, gt.key)
			vm := ac.link()
			resident := func(trace []difftest.HopSpec, dirt bool) difftest.TraceResult {
				var res difftest.TraceResult
				envs := aliasEnvs(ac.comp, trace, ac.states(), dirt)
				for i, env := range envs {
					poison(vm)
					hr, err := vm.RunHop(res.FinalBlob, env, i == 0, i == len(envs)-1)
					if err != nil {
						t.Fatalf("hop %d: %v", i, err)
					}
					res.FinalBlob = hr.Blob
					res.Reports = append(res.Reports, hr.Reports...)
					res.Reject = res.Reject || hr.Reject
				}
				return res
			}

			for _, tc := range []struct {
				label string
				trace []difftest.HopSpec
			}{{"conform", gt.conform}, {"violate", gt.violate}} {
				want, err := difftest.Reference{Prog: ac.comp.Prog}.RunTrace(aliasEnvs(ac.comp, tc.trace, ac.states(), false))
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				resident(gt.violate, true)
				resident(gt.conform, true)
				diffAliased(t, tc.label, resident(tc.trace, false), want)
			}
		})
	}
}

// TestVMScratchAliasing is the whole-trace twin of the per-hop suite:
// every corpus checker runs its golden traces in the engine's resident
// shape (Linked.RunTrace: telemetry in the slots from BeginTrace to the
// one final encode) on a context that is poisoned between traces —
// telemetry slots included, which only BeginTrace restores — with
// foreign dirt traces interleaved. Outcomes must be byte-identical to a
// pristine context's. (A stale report cannot reach a pass from outside:
// Stage.Run starts the report arena, which TestReportRunsByOwner in
// internal/bytecode pins.)
func TestVMScratchAliasing(t *testing.T) {
	for _, gt := range goldenTraces {
		gt := gt
		t.Run(gt.key, func(t *testing.T) {
			ac := newAliasCase(t, gt.key)
			run := func(vm *difftest.Linked, trace []difftest.HopSpec, dirt bool) difftest.TraceResult {
				res, err := vm.RunTrace([][]difftest.HopEnv{aliasEnvs(ac.comp, trace, ac.states(), dirt)}, difftest.Resident)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return res[0]
			}
			clean, dirty := ac.link(), ac.link()
			for _, tc := range []struct {
				label string
				trace []difftest.HopSpec
			}{{"conform", gt.conform}, {"violate", gt.violate}} {
				want := run(clean, tc.trace, false)
				poison(dirty)
				run(dirty, gt.violate, true)
				poison(dirty)
				run(dirty, gt.conform, true)
				poison(dirty)
				diffAliased(t, tc.label, run(dirty, tc.trace, false), want)
			}
		})
	}
}

// TestVMBatchArenaAliasing poisons the engine's resident context
// between every packet: every slot of the linked checker set's
// DirtySlots — the union over its members, the shared header and
// builtin slots included. The engine makes one context per shard at
// construction and reuses it for every packet — there is no per-trace
// template copy, only BeginTrace's telemetry reset and BeginHop's
// merged reset runs — so this is the strongest aliasing surface in
// the system: any slot the reset analysis wrongly prunes, or the linker
// wrongly shares, leaks a poisoned value straight into the next
// packet's verdict. A clean and
// a poisoned engine replay the same campus mix (with looped paths
// spliced in so real rejects and reports are at stake) and must agree
// on every verdict, count, and report byte.
func TestVMBatchArenaAliasing(t *testing.T) {
	type replay struct {
		seq      *engine.Sequential
		verdicts []engine.Verdict
		bus      *reportbus.Bus
		reports  []reportbus.Digest
	}
	build := func() (*replay, []engine.Packet, error) {
		chks, err := experiments.CorpusCheckers()
		if err != nil {
			return nil, nil, err
		}
		pkts, pairs := experiments.CampusEnginePackets(192, 13)
		// Every 8th packet revisits its ingress switch: a forwarding
		// loop the loop-freedom checker must flag.
		for i := 0; i < len(pkts); i += 8 {
			h := pkts[i].Hops
			pkts[i].Hops = append(append([]engine.Hop{}, h...), h[0])
		}
		// The digests are read through a bus tap: a frozen clock keeps the
		// two runs' streams comparable, and one ring holds a whole run's
		// (48 digests).
		r := &replay{verdicts: make([]engine.Verdict, len(pkts))}
		r.bus = reportbus.New(reportbus.Config{RingSize: 1 << 8, Clock: func() int64 { return 0 }})
		r.bus.Tap(func(d reportbus.Digest) { r.reports = append(r.reports, d) })
		r.seq = engine.NewSequential(engine.Config{Checkers: chks, Verdicts: r.verdicts, ReportBus: r.bus})
		if err := experiments.ConfigureReplayEngine(r.seq.Install, pairs); err != nil {
			return nil, nil, err
		}
		return r, pkts, nil
	}

	clean, pkts, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		clean.seq.ProcessBatch(pkts[i : i+1])
	}

	dirty, pkts2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts2 {
		// Poison every slot the VM can write — the worst dirt a previous
		// packet could leave. Constant and read-only field slots are
		// excluded: nothing writes them, so a context can never carry
		// stale values there (DirtySlots documents this contract).
		set, c := dirty.seq.VMContext()
		for _, s := range set.DirtySlots() {
			c.PHV[s] = ^uint64(0)
		}
		c.OpsExecuted += 997
		c.TableApplies += 31
		dirty.seq.ProcessBatch(pkts2[i : i+1])
	}

	for _, r := range []*replay{clean, dirty} {
		r.bus.Flush()
		if m := r.bus.Metrics(); m.Spilled != 0 {
			t.Fatalf("report bus spilled %d of %d digests", m.Spilled, m.Published)
		}
	}
	if c := clean.seq.Counts(); c.Rejected == 0 || c.Reports == 0 {
		t.Fatalf("vacuous workload: counts %+v must include rejects and reports", c)
	}
	if !reflect.DeepEqual(clean.seq.Counts(), dirty.seq.Counts()) {
		t.Errorf("counts diverge:\nclean %+v\ndirty %+v", clean.seq.Counts(), dirty.seq.Counts())
	}
	if !reflect.DeepEqual(clean.verdicts, dirty.verdicts) {
		for i := range clean.verdicts {
			if clean.verdicts[i] != dirty.verdicts[i] {
				t.Errorf("packet %d verdict: clean %+v dirty %+v", i, clean.verdicts[i], dirty.verdicts[i])
			}
		}
	}
	if !reflect.DeepEqual(clean.reports, dirty.reports) {
		t.Errorf("reports diverge: clean %d dirty %d", len(clean.reports), len(dirty.reports))
	}
}
