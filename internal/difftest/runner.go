package difftest

import (
	"bytes"
	"fmt"

	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/indus/ast"
	"repro/internal/indus/eval"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// Compiled is one Indus program prepared for differential execution:
// the eval oracle, the map reference, and the compiled-program handle the
// packet paths link. It is immutable and shared: none of the three
// carries per-switch state, so many Runners (one per independent trace)
// can be built from one Compiled cheaply.
type Compiled struct {
	Info *types.Info
	Prog *pipeline.Program

	m  *eval.Machine
	rt *compiler.Runtime
}

// CompileSource parses, checks, and compiles src for all backends.
func CompileSource(src string) (*Compiled, error) {
	prog, err := parser.Parse("test.indus", src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("types: %w", err)
	}
	compiled, err := compiler.Compile(info, compiler.Options{Name: "test"})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return &Compiled{Info: info, Prog: compiled, m: eval.New(info), rt: &compiler.Runtime{Prog: compiled}}, nil
}

// CompileCorpus compiles a checker from the corpus by key.
func CompileCorpus(key string) (*Compiled, error) {
	p, ok := checkers.ByKey(key)
	if !ok {
		return nil, fmt.Errorf("unknown corpus key %q", key)
	}
	return CompileSource(p.Source)
}

// The pipeline backends, each with a state set of its own per switch:
// the map reference; the VM as a set of this one program, resident over
// the whole trace and pass by pass through the wire codec; and a
// SetRunner's linked Set in each of the three shapes.
const (
	beRef = iota
	beResident
	beWire
	beSet
	beSetWire
	beSetWireNIC
	nBackends
)

// Runner executes traces against every backend with mirrored
// per-switch state. A Runner is single-use per state history: every
// trace it runs mutates its registers and firewall-style dict state.
type Runner struct {
	c *Compiled
	// vm is the program as a set of one, linked at the first trace; both
	// VM shapes of every trace run on its one context.
	vm *Linked

	evalSw map[uint32]*eval.SwitchState
	pipeSw map[uint32]*[nBackends]*pipeline.State
}

// NewRunner builds a fresh mirrored state set over the compiled program.
func (c *Compiled) NewRunner() *Runner {
	return &Runner{
		c:      c,
		evalSw: map[uint32]*eval.SwitchState{},
		pipeSw: map[uint32]*[nBackends]*pipeline.State{},
	}
}

func (r *Runner) sw(id uint32) (*eval.SwitchState, *[nBackends]*pipeline.State) {
	if _, ok := r.evalSw[id]; !ok {
		r.evalSw[id] = eval.NewSwitchState(id)
		ps := new([nBackends]*pipeline.State)
		for be := range ps {
			ps[be] = r.c.Prog.NewState()
		}
		r.pipeSw[id] = ps
	}
	return r.evalSw[id], r.pipeSw[id]
}

// insert mirrors a table install into every pipeline backend's state.
func (r *Runner) insert(id uint32, name string, e pipeline.Entry) error {
	_, ps := r.sw(id)
	for be, st := range ps {
		if err := st.Tables[name].Insert(e); err != nil {
			return fmt.Errorf("install %s (backend %d): %w", name, be, err)
		}
	}
	return nil
}

// InstallDict installs key->val into dict `name` on switch id, on all
// backends.
func (r *Runner) InstallDict(id uint32, name string, key []uint64, val uint64) error {
	es, _ := r.sw(id)
	d, ok := r.c.Info.Decls[name]
	if !ok {
		return fmt.Errorf("install %s: undeclared", name)
	}
	dt, ok := d.Type.(ast.DictType)
	if !ok {
		return fmt.Errorf("install %s: not a dict", name)
	}

	cv, ok := es.Controls[name]
	if !ok {
		cv = eval.NewControlDict()
		es.Controls[name] = cv
	}
	cv.Put(keyValues(dt.Key, key), valueFor(dt.Val, val))

	keys := make([]pipeline.KeyMatch, len(key))
	for i, k := range key {
		keys[i] = pipeline.ExactKey(k)
	}
	w := 1
	if bt, ok := dt.Val.(ast.BitType); ok {
		w = bt.Width
	}
	return r.insert(id, name, pipeline.Entry{Keys: keys, Action: []pipeline.Value{pipeline.B(w, val)}})
}

// InstallScalar sets scalar control `name` on switch id on all backends.
func (r *Runner) InstallScalar(id uint32, name string, val uint64) error {
	es, _ := r.sw(id)
	d, ok := r.c.Info.Decls[name]
	if !ok {
		return fmt.Errorf("install %s: undeclared", name)
	}
	es.Controls[name] = eval.NewControlScalar(valueFor(d.Type, val))
	w := 1
	if bt, ok := d.Type.(ast.BitType); ok {
		w = bt.Width
	}
	return r.insert(id, name, pipeline.Entry{Action: []pipeline.Value{pipeline.B(w, val)}})
}

// InstallSet adds a member to control set `name` on switch id.
func (r *Runner) InstallSet(id uint32, name string, key ...uint64) error {
	es, _ := r.sw(id)
	d, ok := r.c.Info.Decls[name]
	if !ok {
		return fmt.Errorf("install %s: undeclared", name)
	}
	st, ok := d.Type.(ast.SetType)
	if !ok {
		return fmt.Errorf("install %s: not a set", name)
	}

	cv, ok := es.Controls[name]
	if !ok {
		cv = eval.NewControlSet()
		es.Controls[name] = cv
	}
	cv.Add(keyValues(st.Elem, key))

	keys := make([]pipeline.KeyMatch, len(key))
	for i, k := range key {
		keys[i] = pipeline.ExactKey(k)
	}
	return r.insert(id, name, pipeline.Entry{Keys: keys})
}

// ApplyModel installs a checker's canonical symbolic-model state on
// every model switch, dispatching on the declared control type.
func (r *Runner) ApplyModel(m checkers.SymModel) error {
	for _, in := range m.Installs {
		targets := m.Switches
		if in.Switch != 0 {
			targets = []uint32{in.Switch}
		}
		for _, id := range targets {
			d, ok := r.c.Info.Decls[in.Name]
			if !ok {
				return fmt.Errorf("model install %s: undeclared", in.Name)
			}
			var err error
			switch {
			case in.Set:
				err = r.InstallSet(id, in.Name, in.Key...)
			case in.Key != nil:
				err = r.InstallDict(id, in.Name, in.Key, in.Val)
			default:
				if _, isDict := d.Type.(ast.DictType); isDict {
					return fmt.Errorf("model install %s: dict install without key", in.Name)
				}
				err = r.InstallScalar(id, in.Name, in.Val)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Outcome is the agreed result of a trace across all backends.
type Outcome struct {
	Reject    bool
	Reports   [][]uint64
	FinalBlob []byte
}

// Violation reports whether the trace trips the property under the
// repo-wide convention: an explicit reject or any report digest.
func (o Outcome) Violation() bool { return o.Reject || len(o.Reports) > 0 }

// Divergence is a backend disagreement: the counterexample the symbolic
// suite exists to surface. It carries which pair of backends split and
// a human-readable detail of the first mismatching artifact.
type Divergence struct {
	Backends string // e.g. "vm vs map-based"
	Detail   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("backend divergence (%s): %s", d.Backends, d.Detail)
}

// HopSpec is one hop of a differential trace: the switch it crosses and
// the header-variable values (by Indus declaration name) bound there.
// A zero PktLen means the default 100-byte packet.
type HopSpec struct {
	SW      uint32
	Headers map[string]uint64
	PktLen  uint32
}

func (hs HopSpec) pktLen() uint32 {
	if hs.PktLen == 0 {
		return 100
	}
	return hs.PktLen
}

// envs builds every pipeline backend's hop environments for a trace:
// each backend's own state, and the same headers keyed by annotation
// path at their declared widths.
func (r *Runner) envs(trace []HopSpec) (out [nBackends][]HopEnv, err error) {
	for i, hs := range trace {
		hdrs := map[string]pipeline.Value{}
		for name, v := range hs.Headers {
			d, ok := r.c.Info.Decls[name]
			if !ok {
				return out, fmt.Errorf("hop %d: undeclared header %q", i, name)
			}
			w := 1
			if bt, ok := d.Type.(ast.BitType); ok {
				w = bt.Width
			}
			hdrs[r.c.Prog.HeaderBindings[name]] = pipeline.B(w, v)
		}
		_, ps := r.sw(hs.SW)
		for be, st := range ps {
			out[be] = append(out[be], HopEnv{State: st, SwitchID: hs.SW, Headers: hdrs, PacketLen: hs.pktLen()})
		}
	}
	return out, nil
}

// RunTrace executes the trace on every backend — the eval interpreter,
// the map reference, and the bytecode VM in the two shapes the packet
// paths run it in: resident across the whole trace (the engine's) and
// pass by pass through the wire codec (a netsim switch's), both over a
// bytecode.Set of this one program on one context — and compares
// verdicts and report payloads across all of them, plus byte-exact final
// telemetry blobs and the TableApplies / OpsExecuted counts between the
// pipeline executions. A disagreement returns a *Divergence error.
func (r *Runner) RunTrace(trace []HopSpec) (Outcome, error) {
	evalHops := make([]eval.Hop, len(trace))
	for i, hs := range trace {
		es, _ := r.sw(hs.SW)
		headers := map[string]eval.Value{}
		for name, v := range hs.Headers {
			if d, ok := r.c.Info.Decls[name]; ok {
				headers[name] = valueFor(d.Type, v)
			}
		}
		evalHops[i] = eval.Hop{Switch: es, Headers: headers, PacketLen: hs.pktLen()}
	}
	envs, err := r.envs(trace)
	if err != nil {
		return Outcome{}, err
	}

	want, err := r.c.m.RunTrace(evalHops)
	if err != nil {
		return Outcome{}, fmt.Errorf("interpreter: %w", err)
	}
	ref, err := Reference{Prog: r.c.Prog}.RunTrace(envs[beRef])
	if err != nil {
		return Outcome{}, fmt.Errorf("map pipeline: %w", err)
	}
	if r.vm == nil {
		if r.vm, err = Link(r.c.rt); err != nil {
			return Outcome{}, err
		}
	}
	vm, err := r.vm.RunTrace([][]HopEnv{envs[beResident]}, Resident)
	if err != nil {
		return Outcome{}, fmt.Errorf("bytecode vm (resident): %w", err)
	}
	wire, err := r.vm.RunTrace([][]HopEnv{envs[beWire]}, Wire)
	if err != nil {
		return Outcome{}, fmt.Errorf("bytecode vm (wire): %w", err)
	}
	got := wire[0]

	// The pipeline executions must be bit-identical, including the wire
	// blob that left the last hop.
	if d := diffTraces("vm-resident", vm[0], "vm", got); d != nil {
		return Outcome{}, d
	}
	if d := diffTraces("vm", got, "map-based", ref); d != nil {
		return Outcome{}, d
	}

	// Pipeline vs the reference interpreter.
	pair := "pipeline vs interpreter"
	if got.Reject != (want.Verdict == eval.VerdictReject) {
		return Outcome{}, &Divergence{pair, fmt.Sprintf("pipeline reject=%v, interpreter %v", got.Reject, want.Verdict)}
	}
	if len(got.Reports) != len(want.Reports) {
		return Outcome{}, &Divergence{pair, fmt.Sprintf("report count: pipeline %d, interpreter %d", len(got.Reports), len(want.Reports))}
	}
	out := outcomeOf(got)
	for i, gotArgs := range out.Reports {
		wantArgs := flattenEvalArgs(want.Reports[i].Args)
		if len(gotArgs) != len(wantArgs) {
			return Outcome{}, &Divergence{pair, fmt.Sprintf("report %d arity: %v vs %v", i, gotArgs, wantArgs)}
		}
		for j := range gotArgs {
			if gotArgs[j] != wantArgs[j] {
				return Outcome{}, &Divergence{pair, fmt.Sprintf("report %d arg %d: pipeline %d, interpreter %d", i, j, gotArgs[j], wantArgs[j])}
			}
		}
	}
	return out, nil
}

// diffTraces compares two pipeline executions of one trace bit for bit,
// and their counters: a fused instruction counts the IR ops it replaced.
func diffTraces(an string, a TraceResult, bn string, b TraceResult) *Divergence {
	pair := an + " vs " + bn
	if a.Reject != b.Reject {
		return &Divergence{pair, fmt.Sprintf("%s reject=%v, %s reject=%v", an, a.Reject, bn, b.Reject)}
	}
	if !bytes.Equal(a.FinalBlob, b.FinalBlob) {
		return &Divergence{pair, fmt.Sprintf("final blob mismatch: %s %x, %s %x", an, a.FinalBlob, bn, b.FinalBlob)}
	}
	if a.TableApplies != b.TableApplies || a.OpsExecuted != b.OpsExecuted {
		return &Divergence{pair, fmt.Sprintf("counters (applies, ops): %s (%d, %d), %s (%d, %d)",
			an, a.TableApplies, a.OpsExecuted, bn, b.TableApplies, b.OpsExecuted)}
	}
	if len(a.Reports) != len(b.Reports) {
		return &Divergence{pair, fmt.Sprintf("report count: %s %d, %s %d", an, len(a.Reports), bn, len(b.Reports))}
	}
	for i := range a.Reports {
		aa, ba := a.Reports[i].Args, b.Reports[i].Args
		if len(aa) != len(ba) {
			return &Divergence{pair, fmt.Sprintf("report %d arity: %s %v, %s %v", i, an, aa, bn, ba)}
		}
		for j := range aa {
			if aa[j] != ba[j] {
				return &Divergence{pair, fmt.Sprintf("report %d arg %d: %s %v, %s %v", i, j, an, aa[j], bn, ba[j])}
			}
		}
	}
	return nil
}

// valueFor builds an eval value of the declared scalar type.
func valueFor(t ast.Type, v uint64) eval.Value {
	switch t := t.(type) {
	case ast.BitType:
		return eval.NewBit(t.Width, v)
	case ast.BoolType:
		return eval.Bool(v != 0)
	}
	panic("valueFor: non-scalar")
}

func keyValues(keyType ast.Type, vals []uint64) eval.Value {
	if tt, ok := keyType.(ast.TupleType); ok {
		elems := make([]eval.Value, len(tt.Elems))
		for i, et := range tt.Elems {
			elems[i] = valueFor(et, vals[i])
		}
		return eval.Tuple{Elems: elems}
	}
	return valueFor(keyType, vals[0])
}

// flattenEvalArgs flattens tuples in report args to scalars, matching
// the pipeline's digest layout.
func flattenEvalArgs(args []eval.Value) []uint64 {
	var out []uint64
	var flat func(v eval.Value)
	flat = func(v eval.Value) {
		switch v := v.(type) {
		case eval.Bit:
			out = append(out, v.V)
		case eval.Bool:
			if v {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		case eval.Tuple:
			for _, e := range v.Elems {
				flat(e)
			}
		default:
			panic("unexpected report arg type")
		}
	}
	for _, a := range args {
		flat(a)
	}
	return out
}
