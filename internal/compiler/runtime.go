package compiler

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/pipeline"
)

// Runtime executes a compiled program hop by hop, the way the linked
// switches do: init at the first hop's ingress, telemetry at every hop's
// egress, checker at the last hop's egress (§4.2). The telemetry blob it
// threads between hops is exactly the Hydra header payload on the wire.
//
// Runtime is the pooled per-call entry point: RunBlocks draws a VM
// context from the program's pool, runs one hop through the wire codec
// and releases it. Tests and difftest call it; the packet paths take
// VM(), link it with the other checkers of a switch or an engine into
// one bytecode.Set, and run that on a resident context they own.
// NoLink forces the map-based interpreter, kept as the reference
// semantics for differential testing; a program the VM cannot compile
// runs on it too here, which surfaces the same error at execution time —
// the packet paths refuse such a program (VMErr) or leave it out.
type Runtime struct {
	Prog *pipeline.Program
	// CheckEveryHop enables the §4.3 per-hop checking variant: the
	// checker block runs at every hop instead of only the last one, so
	// violations are caught (and packets can be dropped) mid-network.
	CheckEveryHop bool
	// NoLink disables the VM; set it before the first Run* call. Used by
	// the conformance suite to pin the reference path.
	NoLink bool

	vmOnce sync.Once
	vm     *bytecode.Prog
	vmErr  error

	// bindings caches the sorted header-binding paths the program reads;
	// both executors bind headers in this order, and HopEnv.SlotHeaders
	// is indexed by it.
	bindOnce sync.Once
	bindings []string
	phvSize  int

	// phvPool recycles PHV maps between hops (map path only); a PHV
	// never outlives the RunBlocks call that uses it.
	phvPool sync.Pool
}

// Bindings returns the header-binding paths the compiled program reads,
// sorted and deduplicated. HopEnv.SlotHeaders[i] corresponds to
// Bindings()[i].
func (r *Runtime) Bindings() []string {
	r.bindOnce.Do(func() {
		seen := make(map[string]bool, len(r.Prog.HeaderBindings))
		for _, path := range r.Prog.HeaderBindings {
			if !seen[path] {
				seen[path] = true
				r.bindings = append(r.bindings, path)
			}
		}
		sort.Strings(r.bindings)
		// PHV capacity: builtins + bindings + telemetry fields (arrays
		// count slots) + a slack for temporaries and table outputs.
		n := 8 + len(r.bindings)
		for _, f := range r.Prog.Tele {
			if f.IsArray {
				n += f.Cap + 1
			} else {
				n++
			}
		}
		r.phvSize = n + 8
	})
	return r.bindings
}

// VM returns the flat bytecode form of the program, compiling it on
// first use, or nil when NoLink is set or compilation fails (VMErr says
// why; execution then falls back to the map interpreter).
func (r *Runtime) VM() *bytecode.Prog {
	if r.NoLink {
		return nil
	}
	r.vmOnce.Do(func() { r.vm, r.vmErr = bytecode.Compile(r.Prog) })
	return r.vm
}

// VMErr returns the error that left the program without a VM form: nil
// when VM() is non-nil, and nil under NoLink, which asks for none.
func (r *Runtime) VMErr() error {
	r.VM()
	return r.vmErr
}

// HopEnv is the per-hop execution environment.
type HopEnv struct {
	// State is this switch's instantiation of the program's tables and
	// registers.
	State *pipeline.State
	// SwitchID is the switch identifier exposed as the switch_id builtin.
	SwitchID uint32
	// Headers binds forwarding-program fields (keyed by annotation path,
	// e.g. "hdr.ipv4.src_addr") into the checker's PHV.
	Headers map[string]pipeline.Value
	// SlotHeaders is the allocation-free alternative to Headers:
	// SlotHeaders[i] binds Runtime.Bindings()[i], with a zero-width
	// Value marking an absent binding. When non-nil it takes precedence
	// over Headers.
	SlotHeaders []pipeline.Value
	// PacketLen is the wire length exposed as packet_length.
	PacketLen uint32
}

// HopResult is the outcome of running the program at one hop.
type HopResult struct {
	// Blob is the updated telemetry payload to carry to the next hop.
	Blob []byte
	// Reject is true when the checker raised reject at this hop.
	Reject bool
	// Reports are the digests raised at this hop.
	Reports []pipeline.Report
	// TableApplies and OpsExecuted feed the performance model.
	TableApplies int
	OpsExecuted  int
}

// BlockSet selects which blocks RunBlocks executes. The compiler's
// linking rules (§4.2) place Init at the first hop's ingress pipeline —
// before the forwarding tables run — and Telemetry/Checker in the
// egress pipeline, so a switch harness calls RunBlocks twice per hop
// with different header bindings.
type BlockSet struct {
	Init      bool
	Telemetry bool
	Checker   bool
}

// Blocks converts the block selection to the bytecode package's form.
func (bs BlockSet) Blocks() bytecode.Blocks {
	var b bytecode.Blocks
	if bs.Init {
		b |= bytecode.BlockInit
	}
	if bs.Telemetry {
		b |= bytecode.BlockTelemetry
	}
	if bs.Checker {
		b |= bytecode.BlockChecker
	}
	return b
}

// RunBlocks executes the selected blocks against the telemetry blob and
// hop environment and returns the updated blob plus any verdicts.
func (r *Runtime) RunBlocks(blob []byte, env HopEnv, bs BlockSet, first, last bool) (HopResult, error) {
	if vp := r.VM(); vp != nil {
		return runVM(vp, blob, env, bs, first, last)
	}
	return r.runMapped(blob, env, bs, first, last)
}

// headerSlots returns env's header bindings in vp.Bindings() order:
// SlotHeaders as given, else the Headers map flattened, a missing key
// staying zero-width (absent). The map form allocates; it serves tests
// and the differential harness, not the packet paths.
func headerSlots(vp *bytecode.Prog, env *HopEnv) []pipeline.Value {
	if env.SlotHeaders != nil || env.Headers == nil {
		return env.SlotHeaders
	}
	paths := vp.Bindings()
	out := make([]pipeline.Value, len(paths))
	for i, path := range paths {
		out[i] = env.Headers[path]
	}
	return out
}

// runVM executes one hop through bytecode.Prog.RunHop on a pooled
// context.
func runVM(vp *bytecode.Prog, blob []byte, env HopEnv, bs BlockSet, first, last bool) (HopResult, error) {
	c := vp.AcquireCtx()
	defer vp.ReleaseCtx(c)
	out, err := vp.RunHop(c, env.State, blob, nil, headerSlots(vp, &env), env.SwitchID, int(env.PacketLen), first, last, bs.Blocks())
	if err != nil {
		return HopResult{}, err
	}
	return HopResult{
		Blob:         out,
		Reject:       vp.Reject(c),
		Reports:      c.Reports,
		TableApplies: c.TableApplies,
		OpsExecuted:  c.OpsExecuted,
	}, nil
}

// runMapped is the reference interpreter over the map PHV.
func (r *Runtime) runMapped(blob []byte, env HopEnv, bs BlockSet, first, last bool) (HopResult, error) {
	bindings := r.Bindings()
	phv, _ := r.phvPool.Get().(pipeline.PHV)
	if phv == nil {
		phv = make(pipeline.PHV, r.phvSize)
	}
	defer func() {
		clear(phv)
		r.phvPool.Put(phv)
	}()
	if err := r.Prog.DecodeTele(blob, phv); err != nil {
		return HopResult{}, err
	}
	phv.Set(pipeline.FieldSwitch, pipeline.B(32, uint64(env.SwitchID)))
	phv.Set(pipeline.FieldPktLen, pipeline.B(32, uint64(env.PacketLen)))
	phv.Set(pipeline.FieldLastHop, pipeline.BoolV(last))
	phv.Set(pipeline.FieldFirst, pipeline.BoolV(first))
	if env.SlotHeaders != nil {
		for i, path := range bindings {
			if i < len(env.SlotHeaders) && env.SlotHeaders[i].W != 0 {
				phv.Set(pipeline.FieldRef(path), env.SlotHeaders[i])
			}
		}
	} else if env.Headers != nil {
		for _, path := range bindings {
			if v, ok := env.Headers[path]; ok {
				phv.Set(pipeline.FieldRef(path), v)
			}
		}
	}

	ctx := &pipeline.ExecContext{PHV: phv, State: env.State}
	if bs.Init {
		if err := ctx.Exec(r.Prog.Init); err != nil {
			return HopResult{}, fmt.Errorf("init block: %w", err)
		}
	}
	if bs.Telemetry {
		if err := ctx.Exec(r.Prog.Telemetry); err != nil {
			return HopResult{}, fmt.Errorf("telemetry block: %w", err)
		}
	}
	if bs.Checker {
		if err := ctx.Exec(r.Prog.Checker); err != nil {
			return HopResult{}, fmt.Errorf("checker block: %w", err)
		}
	}
	return HopResult{
		Blob:         r.Prog.EncodeTele(phv),
		Reject:       phv.Get(pipeline.FieldReject).Bool(),
		Reports:      ctx.Reports,
		TableApplies: ctx.TableApplies,
		OpsExecuted:  ctx.OpsExecuted,
	}, nil
}

// RunHop executes the blocks scheduled at this hop with a single header
// environment: init (first hop only), telemetry, and checker (last hop,
// or every hop in CheckEveryHop mode).
func (r *Runtime) RunHop(blob []byte, env HopEnv, first, last bool) (HopResult, error) {
	return r.RunBlocks(blob, env, BlockSet{
		Init:      first,
		Telemetry: true,
		Checker:   last || r.CheckEveryHop,
	}, first, last)
}

// TraceResult is the aggregate outcome over a whole path.
type TraceResult struct {
	Reject  bool
	Reports []pipeline.Report
	// FinalBlob is the telemetry payload as stripped at the last hop.
	FinalBlob []byte
}

// RunTrace executes a full path: envs[i] is hop i. It mirrors
// eval.Machine.RunTrace and is used for differential testing.
func (r *Runtime) RunTrace(envs []HopEnv) (TraceResult, error) {
	if len(envs) == 0 {
		return TraceResult{}, fmt.Errorf("compiler: empty trace")
	}
	var res TraceResult
	var blob []byte
	for i, env := range envs {
		hr, err := r.RunHop(blob, env, i == 0, i == len(envs)-1)
		if err != nil {
			return TraceResult{}, fmt.Errorf("hop %d (switch %d): %w", i, env.SwitchID, err)
		}
		blob = hr.Blob
		res.Reports = append(res.Reports, hr.Reports...)
		if hr.Reject {
			res.Reject = true
		}
	}
	res.FinalBlob = blob
	return res, nil
}

// RunTraceVM executes a full path through the VM in resident-PHV mode:
// RunTraceSet over this one program. difftest replays every trace
// through it to pin byte-equivalence with RunTrace's per-hop roundtrip.
func (r *Runtime) RunTraceVM(envs []HopEnv) (TraceResult, error) {
	res, err := RunTraceSet([]*Runtime{r}, [][]HopEnv{envs})
	if err != nil {
		return TraceResult{}, err
	}
	return res[0], nil
}

// RunTraceSet executes one path through several programs linked into one
// bytecode.Set, the engine's execution shape: telemetry stays in the
// slot vector between hops and the wire codec runs only once, for the
// final blobs. envs[k][i] is program k's environment at hop i — its own
// State and Headers; the hop's switch and packet length are envs[0]'s.
func RunTraceSet(rts []*Runtime, envs [][]HopEnv) ([]TraceResult, error) {
	members := make([]bytecode.Member, len(rts))
	for k, r := range rts {
		vp := r.VM()
		if vp == nil {
			return nil, fmt.Errorf("compiler: bytecode backend unavailable")
		}
		members[k] = bytecode.Member{Prog: vp, Index: k, CheckEveryHop: r.CheckEveryHop}
	}
	if len(envs[0]) == 0 {
		return nil, fmt.Errorf("compiler: empty trace")
	}
	set := bytecode.LinkSet(members)
	c := set.NewCtx()
	res := make([]TraceResult, len(rts))
	row := make([]*pipeline.State, len(rts))
	for i, hop := range envs[0] {
		// Set.Bindings is the members' own, one after another.
		var hdrs []pipeline.Value
		for k := range rts {
			row[k] = envs[k][i].State
			at := len(hdrs)
			hdrs = append(hdrs, make([]pipeline.Value, len(members[k].Prog.Bindings()))...)
			copy(hdrs[at:], headerSlots(members[k].Prog, &envs[k][i]))
		}
		first, last := i == 0, i == len(envs[0])-1
		set.BeginHop(c, row, hop.SwitchID, int(hop.PacketLen), first, last)
		set.BindHeaderSlots(c.PHV, hdrs)
		set.Run(c, first, last)
		for k := range res {
			res[k].Reject = res[k].Reject || set.Reject(c, k)
		}
	}
	for i, rep := range c.Reports {
		res[c.Owners[i]].Reports = append(res[c.Owners[i]].Reports, rep)
	}
	blob := set.EncodeTele(nil, c.PHV)
	for k := range res {
		off, n := set.TeleSpan(k)
		res[k].FinalBlob = blob[off : off+n : off+n]
	}
	return res, nil
}
