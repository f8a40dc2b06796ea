package difftest

import (
	"fmt"
	"reflect"
	"slices"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/pipeline"
)

// SetRunner checks bytecode.LinkSet against the product of its members.
// Every member runs a trace alone — through Runner.RunTrace, so oracle ≡
// map reference ≡ VM holds per member (a CheckEveryHop member, which the
// oracle cannot express, on the map reference alone) — and linked with
// the others into one Set three times, each over a state set of its own:
// resident across the trace, the engine's shape (compiler.RunTraceSet),
// and pass by pass with the Set's blob carried as bytes in between, the
// shape of a netsim switch and of a NIC-offloaded last hop (runWire).
// Each member of the Set must reproduce its solo verdict, its reports in
// order, and its final telemetry bytes.
type SetRunner struct {
	// Members holds each member's Runner: install control state there.
	Members []*Runner
	// linked runs member k in the Set, ref alone when it checks at every
	// hop (nil: Members[k].RunTrace does).
	linked, ref []*compiler.Runtime
}

// NewSetRunner links members in order; everyHop[k] (nil: none) places
// member k's checker block at every hop.
func NewSetRunner(members []*Compiled, everyHop []bool) *SetRunner {
	s := &SetRunner{ref: make([]*compiler.Runtime, len(members))}
	for k, c := range members {
		s.Members = append(s.Members, c.NewRunner())
		if k < len(everyHop) && everyHop[k] {
			s.linked = append(s.linked, &compiler.Runtime{Prog: c.Prog, CheckEveryHop: true})
			s.ref[k] = &compiler.Runtime{Prog: c.Prog, CheckEveryHop: true, NoLink: true}
		} else {
			s.linked = append(s.linked, c.rt)
		}
	}
	return s
}

// CompileCorpusSet compiles the whole checker corpus, in checkers.All
// order.
func CompileCorpusSet() ([]*Compiled, error) {
	out := make([]*Compiled, len(checkers.All))
	for k, p := range checkers.All {
		var err error
		if out[k], err = CompileSource(p.Source); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Key, err)
		}
	}
	return out, nil
}

// NewCorpusSetRunner links the compiled corpus into one Set — the
// engine's "All Checkers" program — with every member's canonical
// symbolic-model state installed; everyHop is NewSetRunner's.
func NewCorpusSetRunner(corpus []*Compiled, everyHop []bool) (*SetRunner, error) {
	s := NewSetRunner(corpus, everyHop)
	for k, p := range checkers.All {
		if err := s.Members[k].ApplyModel(checkers.SymModelFor(p.Key)); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Key, err)
		}
	}
	return s, nil
}

// ByPath re-keys a trace of this program from header variable names to
// annotation paths, the form SetRunner.RunTrace takes.
func (c *Compiled) ByPath(trace []HopSpec) []HopSpec {
	out := make([]HopSpec, len(trace))
	for i, hs := range trace {
		out[i] = HopSpec{SW: hs.SW, Headers: map[string]uint64{}, PktLen: hs.PktLen}
		for name, v := range hs.Headers {
			out[i].Headers[c.Prog.HeaderBindings[name]] = v
		}
	}
	return out
}

// RunTrace runs the trace solo and linked and returns the agreed
// outcome per member, or a *Divergence. Headers are keyed by annotation
// path — one environment for every member; a member's header variable
// whose path is missing reads 0.
func (s *SetRunner) RunTrace(trace []HopSpec) ([]Outcome, error) {
	solo := make([]Outcome, len(s.Members))
	var envs [nBackends][][]compiler.HopEnv
	everyHop := false
	for k, r := range s.Members {
		hops := make([]HopSpec, len(trace))
		for i, hs := range trace {
			hops[i] = HopSpec{SW: hs.SW, Headers: map[string]uint64{}, PktLen: hs.PktLen}
			for name, path := range r.c.Prog.HeaderBindings {
				hops[i].Headers[name] = hs.Headers[path]
			}
		}
		all, err := r.envs(hops)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
		for be := range envs {
			envs[be] = append(envs[be], all[be])
		}
		if s.ref[k] != nil {
			everyHop = true
			res, err := s.ref[k].RunTrace(all[beRef])
			if err != nil {
				return nil, fmt.Errorf("member %d: map pipeline: %w", k, err)
			}
			solo[k] = outcomeOf(res)
		} else if solo[k], err = r.RunTrace(hops); err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
	}
	shapes := []struct {
		name string
		run  func() ([]compiler.TraceResult, error)
	}{
		{"resident set", func() ([]compiler.TraceResult, error) { return compiler.RunTraceSet(s.linked, envs[beSet]) }},
		{"wire set", func() ([]compiler.TraceResult, error) { return runWire(s.linked, envs[beWire], false) }},
		// A checker-every-hop member runs its checker with the telemetry
		// pass, so a last hop split in two would run it twice.
		{"wire set, checker alone", func() ([]compiler.TraceResult, error) { return runWire(s.linked, envs[beWireNIC], !everyHop) }},
	}
	for _, sh := range shapes {
		linked, err := sh.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sh.name, err)
		}
		for k := range linked {
			if got := outcomeOf(linked[k]); !reflect.DeepEqual(got, solo[k]) {
				return nil, &Divergence{fmt.Sprintf("%s member %d vs solo", sh.name, k), fmt.Sprintf("linked %+v, solo %+v", got, solo[k])}
			}
		}
	}
	return solo, nil
}

// runWire executes one path through the programs linked into one
// bytecode.Set the way netsim does: every pipeline pass decodes the
// Set's whole blob, restores the scratch slots, binds the headers, runs
// one subset of blocks over every member and encodes the blob back, in
// place once it exists. A first hop is two passes — {init}, then the
// egress pass; an egress pass is {telemetry}, or {telemetry, checker} at
// the last hop, which splitLast turns into {telemetry} and {checker}
// alone, the pass of a NIC that took the last hop's duty. envs[k][i] is
// program k's environment at hop i.
func runWire(rts []*compiler.Runtime, envs [][]compiler.HopEnv, splitLast bool) ([]compiler.TraceResult, error) {
	members := make([]bytecode.Member, len(rts))
	for k, r := range rts {
		members[k] = bytecode.Member{Prog: r.VM(), Index: k, CheckEveryHop: r.CheckEveryHop}
		if members[k].Prog == nil {
			return nil, fmt.Errorf("member %d: bytecode backend unavailable", k)
		}
	}
	set := bytecode.LinkSet(members)
	c := set.NewCtx()
	res := make([]compiler.TraceResult, len(rts))
	row := make([]*pipeline.State, len(rts))
	var blob []byte
	for i, hop := range envs[0] {
		var hdrs []pipeline.Value
		for k := range rts {
			row[k] = envs[k][i].State
			for _, path := range members[k].Prog.Bindings() {
				hdrs = append(hdrs, envs[k][i].Headers[path])
			}
		}
		first, last := i == 0, i == len(envs[0])-1
		var passes []bytecode.Blocks
		if first {
			passes = append(passes, bytecode.BlockInit)
		}
		switch {
		case last && splitLast:
			passes = append(passes, bytecode.BlockTelemetry, bytecode.BlockChecker)
		case last:
			passes = append(passes, bytecode.BlockTelemetry|bytecode.BlockChecker)
		default:
			passes = append(passes, bytecode.BlockTelemetry)
		}
		for _, b := range passes {
			if err := set.DecodeTele(blob, c.PHV); err != nil {
				return nil, fmt.Errorf("hop %d: %w", i, err)
			}
			c.BeginEphemeralReports()
			set.BeginHop(c, row, hop.SwitchID, int(hop.PacketLen), first, last)
			set.BindHeaderSlots(c.PHV, hdrs)
			set.RunBlocks(c, b)
			blob = set.EncodeTele(blob[:0], c.PHV)
			for j, rep := range c.Reports {
				k := c.Owners[j]
				res[k].Reports = append(res[k].Reports, pipeline.Report{Args: slices.Clone(rep.Args)})
			}
			for k := range res {
				res[k].Reject = res[k].Reject || set.Reject(c, k)
			}
		}
	}
	for k := range res {
		off, n := set.TeleSpan(k)
		res[k].FinalBlob = blob[off : off+n : off+n]
	}
	return res, nil
}

// outcomeOf flattens a pipeline execution's result to an Outcome.
func outcomeOf(res compiler.TraceResult) Outcome {
	out := Outcome{Reject: res.Reject, FinalBlob: res.FinalBlob}
	for _, rep := range res.Reports {
		args := make([]uint64, len(rep.Args))
		for j, v := range rep.Args {
			args[j] = v.V
		}
		out.Reports = append(out.Reports, args)
	}
	return out
}
