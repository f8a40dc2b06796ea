package difftest

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// Linked is programs linked into one bytecode.Stage — what an engine
// shard and a netsim switch hold, here with a set of one for a program on
// its own. The context is never re-templated: whatever a pass leaves in
// it, the next pass finds.
type Linked struct{ *bytecode.Stage }

// Link links rts, in order, into one Set; member k's reports carry owner
// k. A runtime without a VM form is an error.
func Link(rts ...*compiler.Runtime) (*Linked, error) {
	members := make([]bytecode.Member, len(rts))
	for k, rt := range rts {
		if err := rt.VMErr(); err != nil {
			return nil, fmt.Errorf("member %d: bytecode backend unavailable: %w", k, err)
		}
		members[k] = rt.Member()
	}
	return &Linked{bytecode.Link(members...)}, nil
}

// run is a pipeline pass over telemetry already in the context's slots:
// store member k's state, fill every header path from the envs (zero
// where none holds it; a pass has one packet, so members that bind one
// path must be given one value), run the blocks b of every member and
// return the reject mask. The hop's switch and packet length are envs[0]'s.
func (l *Linked) run(envs []HopEnv, b bytecode.Blocks, first, last bool) uint64 {
	for i, path := range l.Paths() {
		var v pipeline.Value
		for _, env := range envs {
			if x, ok := env.Headers[path]; ok {
				if v.W != 0 && v != x {
					panic(fmt.Sprintf("difftest: %s bound to %+v and %+v in one pass", path, v, x))
				}
				v = x
			}
		}
		l.SetHeader(i, v.V)
	}
	for k, env := range envs {
		l.Row[k] = env.State
	}
	return l.Run(envs[0].SwitchID, int(envs[0].PacketLen), first, last, b)
}

// Pass is one pipeline pass the way a netsim switch makes it:
// decode the Set's whole blob (empty at the first hop), run, and encode
// the telemetry back into blob's storage. It returns the blob and the
// pass's reject mask (Stage.Run); the pass's reports (Stage.Reports,
// carved from the context's arena) are its own until the next one.
func (l *Linked) Pass(blob []byte, envs []HopEnv, b bytecode.Blocks, first, last bool) ([]byte, uint64, error) {
	if err := l.Set.DecodeTele(blob, l.Ctx.PHV); err != nil {
		return nil, 0, err
	}
	rejects := l.run(envs, b, first, last)
	return l.Set.EncodeTele(blob[:0], l.Ctx.PHV), rejects, nil
}

// RunHop runs a whole hop of a set of one as a single Pass and copies
// the outcome out of the context.
func (l *Linked) RunHop(blob []byte, env HopEnv, first, last bool) (HopResult, error) {
	c := l.Ctx
	applies, ops := c.TableApplies, c.OpsExecuted
	blob, rejects, err := l.Pass(blob, []HopEnv{env}, bytecode.HopBlocks(first, last), first, last)
	if err != nil {
		return HopResult{}, err
	}
	hr := HopResult{Blob: blob, Reject: rejects != 0, TableApplies: c.TableApplies - applies, OpsExecuted: c.OpsExecuted - ops}
	l.Reports(func(_ int, reps []pipeline.Report) { hr.Reports = detach(hr.Reports, reps) })
	return hr, nil
}

// detach appends copies of reps, out of the context's arena, to dst, in
// the form the reference raises them (Args allocated, never nil).
func detach(dst, reps []pipeline.Report) []pipeline.Report {
	for _, rep := range reps {
		args := make([]pipeline.Value, len(rep.Args))
		copy(args, rep.Args)
		dst = append(dst, pipeline.Report{Args: args})
	}
	return dst
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
		return []bytecode.Blocks{bytecode.HopBlocks(first, last)}
	}
	var out []bytecode.Blocks
	if first {
		out = append(out, bytecode.BlockInit)
	}
	if last && s == WireNIC {
		return append(out, bytecode.BlockTelemetry, bytecode.BlockChecker)
	}
	return append(out, bytecode.HopBlocks(false, last))
}

// RunTrace executes one path through the linked programs in the given
// shape: envs[k][i] is member k's environment at hop i. Result k is
// member k's verdict, its reports in order, and its span of the Set's
// final blob; a set of one also gets the context's counters, which the
// members of a larger set share.
func (l *Linked) RunTrace(envs [][]HopEnv, shape Shape) ([]TraceResult, error) {
	hops := len(envs[0])
	if hops == 0 {
		return nil, errEmptyTrace
	}
	set, c := l.Set, l.Ctx
	applies, ops := c.TableApplies, c.OpsExecuted
	if shape == Resident {
		set.BeginTrace(c)
	}
	res := make([]TraceResult, len(envs))
	hop := make([]HopEnv, len(envs))
	var blob []byte
	for i := 0; i < hops; i++ {
		for k := range hop {
			hop[k] = envs[k][i]
		}
		first, last := i == 0, i == hops-1
		for _, b := range shape.passes(first, last) {
			var rejects uint64
			if shape == Resident {
				rejects = l.run(hop, b, first, last)
			} else {
				var err error
				if blob, rejects, err = l.Pass(blob, hop, b, first, last); err != nil {
					return nil, fmt.Errorf("hop %d (switch %d): %w", i, hop[0].SwitchID, err)
				}
			}
			l.Reports(func(k int, reps []pipeline.Report) { res[k].Reports = detach(res[k].Reports, reps) })
			for k := range res {
				res[k].Reject = res[k].Reject || rejects>>k&1 != 0
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
	if len(res) == 1 {
		res[0].TableApplies, res[0].OpsExecuted = c.TableApplies-applies, c.OpsExecuted-ops
	}
	return res, nil
}
