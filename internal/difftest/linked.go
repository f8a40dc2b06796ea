package difftest

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// Linked is programs linked into one bytecode.Set beside the one context
// that set ever runs on — what an engine shard and a netsim hopStage
// hold, here with a set of one for a program on its own. The context is
// never re-templated: whatever a pass leaves in it, the next pass finds.
type Linked struct {
	Set *bytecode.Set
	Ctx *bytecode.Ctx

	members []bytecode.Member
	row     []*pipeline.State
	hdrs    []pipeline.Value
}

// Link links rts, in order, into one Set; member k's reports carry owner
// k. A runtime without a VM form is an error.
func Link(rts ...*compiler.Runtime) (*Linked, error) {
	l := &Linked{members: make([]bytecode.Member, len(rts)), row: make([]*pipeline.State, len(rts))}
	for k, rt := range rts {
		if err := rt.VMErr(); err != nil {
			return nil, fmt.Errorf("member %d: bytecode backend unavailable: %w", k, err)
		}
		l.members[k] = bytecode.Member{Prog: rt.VM(), Index: k, CheckEveryHop: rt.CheckEveryHop}
	}
	l.Set = bytecode.LinkSet(l.members)
	l.Ctx = l.Set.NewCtx()
	return l, nil
}

// Slot resolves a field of member k's program to its slot in the Set's
// PHV, if the program references it anywhere.
func (l *Linked) Slot(k int, f pipeline.FieldRef) (int32, bool) {
	s, ok := l.members[k].Prog.SlotOf(f)
	return l.Set.Slot(k, int32(s)), ok
}

// run is a pipeline pass over telemetry already in the context's slots:
// arm the report arena, restore the scratch slots, bind envs[k].Headers
// for member k, run the blocks b of every member. The hop's switch and
// packet length are envs[0]'s.
func (l *Linked) run(envs []HopEnv, b bytecode.Blocks, first, last bool) {
	l.Ctx.BeginEphemeralReports()
	// Set.Bindings is the members' own, one after another.
	l.hdrs = l.hdrs[:0]
	for k, m := range l.members {
		l.row[k] = envs[k].State
		for _, path := range m.Prog.Bindings() {
			l.hdrs = append(l.hdrs, envs[k].Headers[path])
		}
	}
	l.Set.BeginHop(l.Ctx, l.row, envs[0].SwitchID, int(envs[0].PacketLen), first, last)
	l.Set.BindHeaderSlots(l.Ctx.PHV, l.hdrs)
	l.Set.RunBlocks(l.Ctx, b)
}

// Pass is one pipeline pass the way netsim's hopStage.run makes it:
// decode the Set's whole blob (empty at the first hop), run, and encode
// the telemetry back into blob's storage. The verdicts (Set.Reject) and
// the reports (Ctx.Reports by Ctx.Owners, carved from the context's
// arena) are the pass's own until the next one.
func (l *Linked) Pass(blob []byte, envs []HopEnv, b bytecode.Blocks, first, last bool) ([]byte, error) {
	if err := l.Set.DecodeTele(blob, l.Ctx.PHV); err != nil {
		return nil, err
	}
	l.run(envs, b, first, last)
	return l.Set.EncodeTele(blob[:0], l.Ctx.PHV), nil
}

// hopBlocks is the §4.2 schedule of a hop run as one pass: init at the
// first hop, telemetry at every hop, the checker at the last. A
// CheckEveryHop member's checker rides with its telemetry block.
func hopBlocks(first, last bool) bytecode.Blocks {
	b := bytecode.BlockTelemetry
	if first {
		b |= bytecode.BlockInit
	}
	if last {
		b |= bytecode.BlockChecker
	}
	return b
}

// RunHop runs a whole hop of a set of one as a single Pass and copies
// the outcome out of the context.
func (l *Linked) RunHop(blob []byte, env HopEnv, first, last bool) (HopResult, error) {
	c := l.Ctx
	applies, ops := c.TableApplies, c.OpsExecuted
	blob, err := l.Pass(blob, []HopEnv{env}, hopBlocks(first, last), first, last)
	if err != nil {
		return HopResult{}, err
	}
	hr := HopResult{Blob: blob, Reject: l.Set.Reject(c, 0), TableApplies: c.TableApplies - applies, OpsExecuted: c.OpsExecuted - ops}
	for _, rep := range c.Reports {
		hr.Reports = append(hr.Reports, detach(rep))
	}
	return hr, nil
}

// detach copies a report out of the context's arena, in the form the
// reference raises it (Args allocated, never nil).
func detach(rep pipeline.Report) pipeline.Report {
	args := make([]pipeline.Value, len(rep.Args))
	copy(args, rep.Args)
	return pipeline.Report{Args: args}
}

// Shape is how a trace is cut into pipeline passes.
type Shape int

const (
	// Resident is the engine's shape: one pass per hop, telemetry in the
	// slot vector throughout, the wire codec run once for the final blobs.
	Resident Shape = iota
	// Wire is a fabric of netsim switches: the blob travels as bytes
	// between passes, and the first hop is two of them — init at
	// ingress, the rest at egress.
	Wire
	// WireNIC is Wire with the last hop's checker a pass of its own, the
	// pass of a NIC that took the last hop's duty.
	WireNIC
)

// passes lists the block subsets one hop runs in this shape.
func (s Shape) passes(first, last bool) []bytecode.Blocks {
	if s == Resident {
		return []bytecode.Blocks{hopBlocks(first, last)}
	}
	var out []bytecode.Blocks
	if first {
		out = append(out, bytecode.BlockInit)
	}
	if last && s == WireNIC {
		return append(out, bytecode.BlockTelemetry, bytecode.BlockChecker)
	}
	return append(out, hopBlocks(false, last))
}

// RunTrace executes one path through the linked programs in the given
// shape: envs[k][i] is member k's environment at hop i. Result k is
// member k's verdict, its reports in order, and its span of the Set's
// final blob.
func (l *Linked) RunTrace(envs [][]HopEnv, shape Shape) ([]TraceResult, error) {
	hops := len(envs[0])
	if hops == 0 {
		return nil, errEmptyTrace
	}
	set, c := l.Set, l.Ctx
	if shape == Resident {
		set.BeginTrace(c)
	}
	res := make([]TraceResult, len(l.members))
	hop := make([]HopEnv, len(l.members))
	var blob []byte
	for i := 0; i < hops; i++ {
		for k := range hop {
			hop[k] = envs[k][i]
		}
		first, last := i == 0, i == hops-1
		for _, b := range shape.passes(first, last) {
			if shape == Resident {
				l.run(hop, b, first, last)
			} else {
				var err error
				if blob, err = l.Pass(blob, hop, b, first, last); err != nil {
					return nil, fmt.Errorf("hop %d (switch %d): %w", i, hop[0].SwitchID, err)
				}
			}
			for j, rep := range c.Reports {
				res[c.Owners[j]].Reports = append(res[c.Owners[j]].Reports, detach(rep))
			}
			for k := range res {
				res[k].Reject = res[k].Reject || set.Reject(c, k)
			}
		}
	}
	if shape == Resident {
		blob = set.EncodeTele(nil, c.PHV)
	}
	for k := range res {
		off, n := set.TeleSpan(k)
		res[k].FinalBlob = blob[off : off+n : off+n]
	}
	return res, nil
}
