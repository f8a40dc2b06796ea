package symexec

import (
	"fmt"
	"sort"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/indus/ast"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// HeaderVar is one free header variable of the trace model.
type HeaderVar struct {
	// Name is the Indus declaration name; witness traces key header
	// values by it (the same keying difftest.HopSpec uses).
	Name string
	// Path is the annotation path bound into the PHV.
	Path string
	// Width in bits (bools are width 1).
	Width int
}

// Hop is one hop of a concrete witness trace.
type Hop struct {
	Switch  uint32            `json:"switch"`
	PktLen  uint32            `json:"pktlen"`
	Headers map[string]uint64 `json:"headers,omitempty"`
}

// Trace is a concrete witness: directly convertible to difftest hop
// specs for replay through all three backends.
type Trace struct {
	Hops []Hop `json:"hops"`
}

// Clone deep-copies the trace.
func (t Trace) Clone() Trace {
	out := Trace{Hops: make([]Hop, len(t.Hops))}
	for i, h := range t.Hops {
		hh := Hop{Switch: h.Switch, PktLen: h.PktLen}
		if h.Headers != nil {
			hh.Headers = make(map[string]uint64, len(h.Headers))
			for k, v := range h.Headers {
				hh.Headers[k] = v
			}
		}
		out.Hops[i] = hh
	}
	return out
}

// Verdict is the modeled outcome of a trace.
type Verdict struct {
	Reject  bool `json:"reject"`
	Reports int  `json:"reports"`
}

// Path is one explored path: the witness trace plus the symbolic
// executor's predicted outcome, which replay checks against all three
// backends byte-for-byte.
type Path struct {
	Trace     Trace
	Verdict   Verdict
	Reports   [][]uint64
	FinalBlob []byte
	// Conds are the printable path conditions (debugging / reports).
	Conds []string
}

// FrontierPair is a verdict flip: two concrete traces on opposite sides
// of one path condition (or one differing switch hop).
type FrontierPair struct {
	Cond           string  `json:"cond"`
	Conform        Trace   `json:"conform"`
	Violate        Trace   `json:"violate"`
	ConformVerdict Verdict `json:"conform_verdict"`
	ViolateVerdict Verdict `json:"violate_verdict"`
}

// Result is the outcome of exploring one checker's modeled space.
type Result struct {
	Checker   string
	Paths     []Path
	Frontier  []FrontierPair
	Instances int
	// Complete is false if any flip went unsolved (solver budget) or a
	// path cap was hit — the equivalence claim then covers only the
	// explored subset.
	Complete bool
	Notes    []string

	FlipsSolved  int
	FlipsUnsat   int
	FlipsUnknown int
}

// The exploration's budgets.
const (
	// maxPathsPerInstance caps distinct paths per switch sequence.
	maxPathsPerInstance = 256
	// solverNodes is the per-flip search budget.
	solverNodes = 20000
	// maxFrontierPairs caps the committed frontier per checker.
	maxFrontierPairs = 12
	// maxCandidatesPerVar caps the solver's per-variable value pool.
	maxCandidatesPerVar = 64
	// crossSwitchPaths is how many paths per instance are re-executed
	// under single-switch perturbations to find switch-driven flips.
	crossSwitchPaths = 8
)

// varInfo describes one solver variable.
type varInfo struct {
	name  string
	width int
	def   uint64
	// min filters candidates: packet length is >= 1 so witnesses stay
	// unambiguous under difftest's zero-means-default convention.
	min uint64
}

// tableSnap is a deterministic snapshot of one switch's table: sorted
// entries for stable miss-constraint order and reproducible runs.
type tableSnap struct {
	tbl     *pipeline.Table
	entries []pipeline.Entry
}

// Explorer explores one checker's bounded trace model.
type Explorer struct {
	Key     string
	prog    *pipeline.Program
	headers []HeaderVar
	model   checkers.SymModel

	states map[uint32]*pipeline.State
	tables map[uint32]map[string]*tableSnap
}

// New builds an explorer over an arbitrary compiled program. The model
// installs are applied to fresh per-switch states.
func New(key string, prog *pipeline.Program, headers []HeaderVar, model checkers.SymModel) (*Explorer, error) {
	if model.MaxHops <= 0 || len(model.Switches) == 0 {
		return nil, fmt.Errorf("symexec: model needs MaxHops >= 1 and a switch set")
	}
	states, err := BuildStates(prog, model)
	if err != nil {
		return nil, err
	}
	ex := &Explorer{
		Key:     key,
		prog:    prog,
		headers: headers,
		model:   model,
		states:  states,
		tables:  make(map[uint32]map[string]*tableSnap, len(states)),
	}
	for id, st := range states {
		snaps := make(map[string]*tableSnap, len(st.Tables))
		for name, tbl := range st.Tables {
			if !tbl.IsExact() {
				return nil, fmt.Errorf("symexec: table %q: only exact-match tables are modeled", name)
			}
			entries := tbl.Entries()
			sort.Slice(entries, func(i, j int) bool {
				a, b := entries[i].Keys, entries[j].Keys
				for k := range a {
					if a[k].Value != b[k].Value {
						return a[k].Value < b[k].Value
					}
				}
				return false
			})
			snaps[name] = &tableSnap{tbl: tbl, entries: entries}
		}
		ex.tables[id] = snaps
	}
	return ex, nil
}

// ForChecker compiles a corpus checker and builds its explorer using
// the checker's SymModel annotation.
func ForChecker(key string) (*Explorer, error) {
	p, ok := checkers.ByKey(key)
	if !ok {
		return nil, fmt.Errorf("symexec: unknown corpus key %q", key)
	}
	src, err := parser.Parse(key+".indus", p.Source)
	if err != nil {
		return nil, fmt.Errorf("symexec: parse %s: %w", key, err)
	}
	info, err := types.Check(src)
	if err != nil {
		return nil, fmt.Errorf("symexec: types %s: %w", key, err)
	}
	prog, err := compiler.Compile(info, compiler.Options{Name: key})
	if err != nil {
		return nil, fmt.Errorf("symexec: compile %s: %w", key, err)
	}
	var headers []HeaderVar
	for _, d := range info.Prog.DeclsOfKind(ast.KindHeader) {
		headers = append(headers, HeaderVar{
			Name:  d.Name,
			Path:  prog.HeaderBindings[d.Name],
			Width: scalarWidth(d.Type),
		})
	}
	return New(key, prog, headers, checkers.SymModelFor(key))
}

func scalarWidth(t ast.Type) int {
	switch t := t.(type) {
	case ast.BitType:
		return t.Width
	case ast.BoolType:
		return 1
	}
	return 0
}

// BuildStates instantiates per-switch pipeline state with the model's
// canonical control-plane installs. The context-aliasing tests reuse
// it to get bit-identical state without a difftest Runner.
func BuildStates(prog *pipeline.Program, model checkers.SymModel) (map[uint32]*pipeline.State, error) {
	specs := make(map[string]pipeline.TableSpec, len(prog.Tables))
	for _, ts := range prog.Tables {
		specs[ts.Name] = ts
	}
	states := make(map[uint32]*pipeline.State, len(model.Switches))
	for _, id := range model.Switches {
		states[id] = prog.NewState()
	}
	for _, in := range model.Installs {
		spec, ok := specs[in.Name]
		if !ok {
			return nil, fmt.Errorf("symexec: model install %q: no such table", in.Name)
		}
		e := pipeline.Entry{}
		for _, k := range in.Key {
			e.Keys = append(e.Keys, pipeline.ExactKey(k))
		}
		if !in.Set {
			if len(spec.OutputWidths) != 1 {
				return nil, fmt.Errorf("symexec: model install %q: want 1 output, have %d", in.Name, len(spec.OutputWidths))
			}
			e.Action = []pipeline.Value{pipeline.B(spec.OutputWidths[0], in.Val)}
		}
		targets := model.Switches
		if in.Switch != 0 {
			targets = []uint32{in.Switch}
		}
		for _, id := range targets {
			st, ok := states[id]
			if !ok {
				return nil, fmt.Errorf("symexec: model install %q: switch %d not in model", in.Name, in.Switch)
			}
			if err := st.Tables[in.Name].Insert(e); err != nil {
				return nil, fmt.Errorf("symexec: model install %q: %w", in.Name, err)
			}
		}
	}
	return states, nil
}

// Headers exposes the model's free header variables (used by the
// adversarial corpus conversion to resolve names to paths).
func (ex *Explorer) Headers() []HeaderVar { return ex.headers }

// varsFor lays out the solver variables of an L-hop trace: per hop, the
// header variables in declaration order, then the packet length.
func (ex *Explorer) varsFor(L int) []varInfo {
	vars := make([]varInfo, 0, L*(len(ex.headers)+1))
	for hop := 0; hop < L; hop++ {
		for _, h := range ex.headers {
			vars = append(vars, varInfo{
				name:  fmt.Sprintf("hop%d.%s", hop, h.Name),
				width: h.Width,
			})
		}
		vars = append(vars, varInfo{
			name:  fmt.Sprintf("hop%d.packet_length", hop),
			width: 32,
			def:   100,
			min:   1,
		})
	}
	return vars
}

func (ex *Explorer) headerVar(hop, j int) int { return hop*(len(ex.headers)+1) + j }
func (ex *Explorer) pktVar(hop int) int       { return hop*(len(ex.headers)+1) + len(ex.headers) }

// witness converts an assignment under a switch sequence into a
// concrete replayable trace.
func (ex *Explorer) witness(seq []uint32, asn []uint64) Trace {
	tr := Trace{Hops: make([]Hop, len(seq))}
	for hop, sw := range seq {
		h := Hop{Switch: sw, PktLen: uint32(asn[ex.pktVar(hop)])}
		if len(ex.headers) > 0 {
			h.Headers = make(map[string]uint64, len(ex.headers))
			for j, hv := range ex.headers {
				h.Headers[hv.Name] = asn[ex.headerVar(hop, j)]
			}
		}
		tr.Hops[hop] = h
	}
	return tr
}

// sequences enumerates all switch sequences of length L over the model
// switches, in lexicographic order.
func sequences(switches []uint32, L int) [][]uint32 {
	total := 1
	for i := 0; i < L; i++ {
		total *= len(switches)
	}
	out := make([][]uint32, 0, total)
	seq := make([]uint32, L)
	var rec func(i int)
	rec = func(i int) {
		if i == L {
			out = append(out, append([]uint32(nil), seq...))
			return
		}
		for _, s := range switches {
			seq[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
