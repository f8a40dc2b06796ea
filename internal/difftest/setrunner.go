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
// the others into one Set in each Shape of Linked.RunTrace, each over a
// state set of its own: resident across the trace, pass by pass with the
// Set's blob carried as bytes in between, and that with the last hop's
// checker a pass of its own. Each member of the Set must reproduce its
// solo verdict, its reports in order, and its final telemetry bytes.
type SetRunner struct {
	// Members holds each member's Runner: install control state there.
	Members []*Runner
	// rts runs member k in the Set, linked at the first trace.
	rts    []*compiler.Runtime
	linked *Linked
}

// NewSetRunner links members in order; everyHop[k] (nil: none) places
// member k's checker block at every hop.
func NewSetRunner(members []*Compiled, everyHop []bool) *SetRunner {
	s := &SetRunner{}
	for k, c := range members {
		s.Members = append(s.Members, c.NewRunner())
		rt := c.rt
		if k < len(everyHop) && everyHop[k] {
			rt = &compiler.Runtime{Prog: c.Prog, CheckEveryHop: true}
		}
		s.rts = append(s.rts, rt)
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

// byName re-keys a trace keyed by annotation path to r's header variable
// names, ByPath's inverse; a variable whose path is missing reads 0.
func (r *Runner) byName(trace []HopSpec) []HopSpec {
	out := make([]HopSpec, len(trace))
	for i, hs := range trace {
		out[i] = HopSpec{SW: hs.SW, Headers: map[string]uint64{}, PktLen: hs.PktLen}
		for name, path := range r.c.Prog.HeaderBindings {
			out[i].Headers[name] = hs.Headers[path]
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
	var envs [nBackends][][]HopEnv
	everyHop := false
	for k, r := range s.Members {
		hops := r.byName(trace)
		all, err := r.envs(hops)
		if err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
		for be := range envs {
			envs[be] = append(envs[be], all[be])
		}
		if s.rts[k].CheckEveryHop {
			everyHop = true
			res, err := Reference{Prog: r.c.Prog, CheckEveryHop: true}.RunTrace(all[beRef])
			if err != nil {
				return nil, fmt.Errorf("member %d: map pipeline: %w", k, err)
			}
			solo[k] = outcomeOf(res)
		} else if solo[k], err = r.RunTrace(hops); err != nil {
			return nil, fmt.Errorf("member %d: %w", k, err)
		}
	}
	if s.linked == nil {
		var err error
		if s.linked, err = Link(s.rts...); err != nil {
			return nil, err
		}
	}
	// A checker-every-hop member runs its checker with the telemetry
	// pass, so a last hop split in two would run it twice.
	nic := WireNIC
	if everyHop {
		nic = Wire
	}
	shapes := []struct {
		name  string
		shape Shape
		be    int
	}{
		{"resident set", Resident, beSet},
		{"wire set", Wire, beSetWire},
		{"wire set, checker alone", nic, beSetWireNIC},
	}
	for _, sh := range shapes {
		linked, err := s.linked.RunTrace(envs[sh.be], sh.shape)
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

// outcomeOf flattens a pipeline execution's result to an Outcome.
func outcomeOf(res TraceResult) Outcome {
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
