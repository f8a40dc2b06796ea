package difftest

import (
	"fmt"
	"reflect"

	"repro/internal/checkers"
	"repro/internal/compiler"
)

// SetRunner checks bytecode.LinkSet against the product of its members.
// Every member runs a trace alone — through Runner.RunTrace, so oracle ≡
// map reference ≡ VM holds per member (a CheckEveryHop member, which the
// oracle cannot express, on the map reference alone) — and linked with
// the others into one Set (compiler.RunTraceSet), over a state set of
// its own. Each member of the Set must reproduce its solo verdict, its
// reports in order, and its final telemetry bytes.
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
// symbolic-model state installed.
func NewCorpusSetRunner(corpus []*Compiled) (*SetRunner, error) {
	s := NewSetRunner(corpus, nil)
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
	envs := make([][]compiler.HopEnv, len(s.Members))
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
		envs[k] = all[beSet]
		if s.ref[k] != nil {
			res, err := s.ref[k].RunTrace(all[beRef])
			if err != nil {
				return nil, fmt.Errorf("member %d: map pipeline: %w", k, err)
			}
			solo[k] = outcomeOf(res)
		} else if solo[k], err = r.RunTrace(hops); err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
	}
	linked, err := compiler.RunTraceSet(s.linked, envs)
	if err != nil {
		return nil, fmt.Errorf("linked set: %w", err)
	}
	for k := range linked {
		if got := outcomeOf(linked[k]); !reflect.DeepEqual(got, solo[k]) {
			return nil, &Divergence{fmt.Sprintf("set member %d vs solo", k), fmt.Sprintf("linked %+v, solo %+v", got, solo[k])}
		}
	}
	return solo, nil
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
