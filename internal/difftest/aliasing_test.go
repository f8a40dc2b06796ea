package difftest_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/indus/ast"
	"repro/internal/pipeline"
	"repro/internal/symexec"
)

// aliasEnvs renders a golden trace as hop environments over the given
// states; dirt flips every header value (a different flow of the same
// shape).
func aliasEnvs(comp *difftest.Compiled, trace []difftest.HopSpec, states map[uint32]*pipeline.State, dirt bool) []compiler.HopEnv {
	out := make([]compiler.HopEnv, len(trace))
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
		out[i] = compiler.HopEnv{
			State:     states[hs.SW],
			SwitchID:  hs.SW,
			Headers:   headers,
			PacketLen: pktLen,
		}
	}
	return out
}

// TestResidentHopAliasing is the aliasing suite for the per-hop wire
// path netsim runs: every corpus checker threads its golden traces hop
// by hop through Prog.RunHop on ONE resident context — never released,
// never re-templated — with every slot the VM can write (DirtySlots)
// poisoned with all-ones garbage before each hop, counters bumped, and
// foreign dirt traces interleaved so the table-apply caches and the
// report arena carry another flow. Outcomes must be byte-identical to
// the map reference on pristine state: the blob decode plus BeginHop's
// reset runs must erase every poisoned slot an execution could observe.
func TestResidentHopAliasing(t *testing.T) {
	for _, gt := range goldenTraces {
		gt := gt
		t.Run(gt.key, func(t *testing.T) {
			comp, err := difftest.CompileCorpus(gt.key)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			model := checkers.SymModelFor(gt.key)
			freshStates := func() map[uint32]*pipeline.State {
				states, err := symexec.BuildStates(comp.Prog, model)
				if err != nil {
					t.Fatalf("build states: %v", err)
				}
				return states
			}

			ref := &compiler.Runtime{Prog: comp.Prog, NoLink: true}
			vp := (&compiler.Runtime{Prog: comp.Prog}).VM()
			if vp == nil {
				t.Fatal("program failed to compile to bytecode")
			}
			c := vp.NewCtx()

			resident := func(trace []difftest.HopSpec, dirt bool) compiler.TraceResult {
				var res compiler.TraceResult
				var blob []byte
				envs := aliasEnvs(comp, trace, freshStates(), dirt)
				for i, env := range envs {
					for _, s := range vp.DirtySlots() {
						c.PHV[s] = pipeline.B(64, ^uint64(0))
					}
					c.OpsExecuted += 997
					c.TableApplies += 31
					hdrs := make([]pipeline.Value, len(vp.Bindings()))
					for j, path := range vp.Bindings() {
						hdrs[j] = env.Headers[path]
					}
					first, last := i == 0, i == len(envs)-1
					blocks := bytecode.BlockTelemetry
					if first {
						blocks |= bytecode.BlockInit
					}
					if last {
						blocks |= bytecode.BlockChecker
					}
					c.BeginEphemeralReports()
					blob, err = vp.RunHop(c, env.State, blob, blob[:0], hdrs, env.SwitchID, int(env.PacketLen), first, last, blocks)
					if err != nil {
						t.Fatalf("hop %d: %v", i, err)
					}
					for _, r := range c.Reports { // arena-backed: copy out
						args := make([]pipeline.Value, len(r.Args))
						copy(args, r.Args)
						res.Reports = append(res.Reports, pipeline.Report{Args: args})
					}
					res.Reject = res.Reject || vp.Reject(c)
				}
				res.FinalBlob = append([]byte(nil), blob...)
				return res
			}

			for _, tc := range []struct {
				label string
				trace []difftest.HopSpec
			}{{"conform", gt.conform}, {"violate", gt.violate}} {
				want, err := ref.RunTrace(aliasEnvs(comp, tc.trace, freshStates(), false))
				if err != nil {
					t.Fatalf("reference: %v", err)
				}
				resident(gt.violate, true)
				resident(gt.conform, true)
				got := resident(tc.trace, false)

				if got.Reject != want.Reject {
					t.Errorf("%s: reject %v on the poisoned context, %v on the reference", tc.label, got.Reject, want.Reject)
				}
				if !bytes.Equal(got.FinalBlob, want.FinalBlob) {
					t.Errorf("%s: final blob %x on the poisoned context, %x on the reference", tc.label, got.FinalBlob, want.FinalBlob)
				}
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Errorf("%s: reports %+v on the poisoned context, %+v on the reference", tc.label, got.Reports, want.Reports)
				}
			}
		})
	}
}

// TestVMScratchAliasing is the pooled-context twin of the resident
// suite: every corpus checker runs its golden traces through RunTrace
// (one pooled context per hop) on a runtime whose pooled VM contexts
// are scribbled with all-ones slots, stale reports, and bumped
// counters between traces, with foreign dirt traces interleaved so the
// per-site table caches hold another packet's entries. Outcomes must
// be byte-identical to a pristine runtime: the per-acquire template
// restore plus the per-hop reset runs must erase every poisoned slot
// an execution could observe.
func TestVMScratchAliasing(t *testing.T) {
	for _, gt := range goldenTraces {
		gt := gt
		t.Run(gt.key, func(t *testing.T) {
			comp, err := difftest.CompileCorpus(gt.key)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			model := checkers.SymModelFor(gt.key)

			run := func(rt *compiler.Runtime, trace []difftest.HopSpec) compiler.TraceResult {
				states, err := symexec.BuildStates(comp.Prog, model)
				if err != nil {
					t.Fatalf("build states: %v", err)
				}
				res, err := rt.RunTrace(aliasEnvs(comp, trace, states, false))
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				return res
			}

			scribble := func(vp *bytecode.Prog) {
				ctxs := make([]*bytecode.Ctx, 4)
				for i := range ctxs {
					c := vp.AcquireCtx()
					for s := range c.PHV {
						c.PHV[s] = pipeline.B(64, ^uint64(0))
					}
					c.Reports = append(c.Reports, pipeline.Report{
						Args: []pipeline.Value{pipeline.B(64, 0xbadbadbadbad)},
					})
					c.OpsExecuted += 997
					c.TableApplies += 31
					ctxs[i] = c
				}
				for _, c := range ctxs {
					vp.ReleaseCtx(c)
				}
			}
			dirtTrace := func(rt *compiler.Runtime, trace []difftest.HopSpec) {
				states, err := symexec.BuildStates(comp.Prog, model)
				if err != nil {
					t.Fatalf("build states: %v", err)
				}
				if _, err := rt.RunTrace(aliasEnvs(comp, trace, states, true)); err != nil {
					t.Fatalf("dirt trace: %v", err)
				}
			}

			clean := &compiler.Runtime{Prog: comp.Prog}
			dirty := &compiler.Runtime{Prog: comp.Prog}
			vp := dirty.VM()
			if vp == nil {
				t.Fatal("program failed to compile to bytecode")
			}

			for _, tc := range []struct {
				label string
				trace []difftest.HopSpec
			}{{"conform", gt.conform}, {"violate", gt.violate}} {
				want := run(clean, tc.trace)
				scribble(vp)
				dirtTrace(dirty, gt.violate)
				scribble(vp)
				dirtTrace(dirty, gt.conform)
				scribble(vp)
				got := run(dirty, tc.trace)

				if got.Reject != want.Reject {
					t.Errorf("%s: reject %v on dirty runtime, %v on clean", tc.label, got.Reject, want.Reject)
				}
				if !bytes.Equal(got.FinalBlob, want.FinalBlob) {
					t.Errorf("%s: final blob %x on dirty runtime, %x on clean", tc.label, got.FinalBlob, want.FinalBlob)
				}
				if !reflect.DeepEqual(got.Reports, want.Reports) {
					t.Errorf("%s: reports %+v on dirty runtime, %+v on clean", tc.label, got.Reports, want.Reports)
				}
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
	build := func() (*engine.Sequential, []engine.Verdict, []engine.Packet, error) {
		chks, err := experiments.CorpusCheckers()
		if err != nil {
			return nil, nil, nil, err
		}
		pkts, pairs := experiments.CampusEnginePackets(192, 13)
		// Every 8th packet revisits its ingress switch: a forwarding
		// loop the loop-freedom checker must flag.
		for i := 0; i < len(pkts); i += 8 {
			h := pkts[i].Hops
			pkts[i].Hops = append(append([]engine.Hop{}, h...), h[0])
		}
		verdicts := make([]engine.Verdict, len(pkts))
		seq := engine.NewSequential(engine.Config{
			Checkers:    chks,
			Verdicts:    verdicts,
			KeepReports: true,
		})
		if err := experiments.ConfigureReplayEngine(seq.Install, pairs); err != nil {
			return nil, nil, nil, err
		}
		return seq, verdicts, pkts, nil
	}

	clean, cleanV, pkts, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts {
		clean.ProcessBatch(pkts[i : i+1])
	}

	dirty, dirtyV, pkts2, err := build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pkts2 {
		// Poison every slot the VM can write — the worst dirt a previous
		// packet could leave. Constant and read-only field slots are
		// excluded: nothing writes them, so a context can never carry
		// stale values there (DirtySlots documents this contract).
		set, c := dirty.VMContext()
		for _, s := range set.DirtySlots() {
			c.PHV[s] = pipeline.B(64, ^uint64(0))
		}
		c.Reports = append(c.Reports, pipeline.Report{
			Args: []pipeline.Value{pipeline.B(64, 0xbadbadbadbad)},
		})
		c.Owners = append(c.Owners, 3)
		c.OpsExecuted += 997
		c.TableApplies += 31
		dirty.ProcessBatch(pkts2[i : i+1])
	}

	if c := clean.Counts(); c.Rejected == 0 || c.Reports == 0 {
		t.Fatalf("vacuous workload: counts %+v must include rejects and reports", c)
	}
	if !reflect.DeepEqual(clean.Counts(), dirty.Counts()) {
		t.Errorf("counts diverge:\nclean %+v\ndirty %+v", clean.Counts(), dirty.Counts())
	}
	if !reflect.DeepEqual(cleanV, dirtyV) {
		for i := range cleanV {
			if cleanV[i] != dirtyV[i] {
				t.Errorf("packet %d verdict: clean %+v dirty %+v", i, cleanV[i], dirtyV[i])
			}
		}
	}
	if !reflect.DeepEqual(clean.Reports(), dirty.Reports()) {
		t.Errorf("reports diverge: clean %d dirty %d", len(clean.Reports()), len(dirty.Reports()))
	}
}
