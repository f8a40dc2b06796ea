package difftest

import (
	"errors"
	"fmt"

	"repro/internal/pipeline"
)

// HopEnv is one program's execution environment at one hop.
type HopEnv struct {
	// State is this switch's instantiation of the program's tables and
	// registers.
	State *pipeline.State
	// SwitchID is the switch identifier exposed as the switch_id builtin.
	SwitchID uint32
	// Headers binds forwarding-program fields (keyed by annotation path,
	// e.g. "hdr.ipv4.src_addr") into the checker's PHV; a missing path is
	// an absent header.
	Headers map[string]pipeline.Value
	// PacketLen is the wire length exposed as packet_length.
	PacketLen uint32
}

// HopResult is the outcome of running a program at one hop.
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

// TraceResult is the aggregate outcome over a whole path.
type TraceResult struct {
	Reject  bool
	Reports []pipeline.Report
	// FinalBlob is the telemetry payload as stripped at the last hop.
	FinalBlob []byte
	// TableApplies and OpsExecuted are HopResult's, summed over the hops.
	TableApplies int
	OpsExecuted  int
}

var errEmptyTrace = errors.New("difftest: empty trace")

// Reference is the reference semantics of a compiled program: the IR
// executed op by op over a map PHV by pipeline.ExecContext, telemetry
// carried between hops as the wire blob of the Program's own codec. It
// shares no code with the bytecode VM and runs on no packet path; the
// oracles of this package, of internal/engine and of internal/netsim
// compare the VM against it.
type Reference struct {
	Prog *pipeline.Program
	// CheckEveryHop is the §4.3 placement: the checker block runs at
	// every hop instead of only the last one.
	CheckEveryHop bool
}

// RunHop executes the blocks scheduled at this hop — init at the first,
// telemetry at every one, the checker at the last — against the
// telemetry blob and hop environment, and returns the updated blob plus
// any verdicts.
func (r Reference) RunHop(blob []byte, env HopEnv, first, last bool) (HopResult, error) {
	phv := pipeline.PHV{}
	if err := r.Prog.DecodeTele(blob, phv); err != nil {
		return HopResult{}, err
	}
	phv.Set(pipeline.FieldSwitch, pipeline.B(32, uint64(env.SwitchID)))
	phv.Set(pipeline.FieldPktLen, pipeline.B(32, uint64(env.PacketLen)))
	phv.Set(pipeline.FieldLastHop, pipeline.BoolV(last))
	phv.Set(pipeline.FieldFirst, pipeline.BoolV(first))
	for _, path := range r.Prog.HeaderBindings {
		if v, ok := env.Headers[path]; ok {
			phv.Set(pipeline.FieldRef(path), v)
		}
	}

	ctx := &pipeline.ExecContext{PHV: phv, State: env.State}
	for _, blk := range []struct {
		name string
		run  bool
		ops  []pipeline.Op
	}{
		{"init", first, r.Prog.Init},
		{"telemetry", true, r.Prog.Telemetry},
		{"checker", last || r.CheckEveryHop, r.Prog.Checker},
	} {
		if !blk.run {
			continue
		}
		if err := ctx.Exec(blk.ops); err != nil {
			return HopResult{}, fmt.Errorf("%s block: %w", blk.name, err)
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

// RunTrace executes a full path: envs[i] is hop i. It mirrors
// eval.Machine.RunTrace.
func (r Reference) RunTrace(envs []HopEnv) (TraceResult, error) {
	if len(envs) == 0 {
		return TraceResult{}, errEmptyTrace
	}
	var res TraceResult
	for i, env := range envs {
		hr, err := r.RunHop(res.FinalBlob, env, i == 0, i == len(envs)-1)
		if err != nil {
			return TraceResult{}, fmt.Errorf("hop %d (switch %d): %w", i, env.SwitchID, err)
		}
		res.FinalBlob = hr.Blob
		res.Reports = append(res.Reports, hr.Reports...)
		res.Reject = res.Reject || hr.Reject
		res.TableApplies += hr.TableApplies
		res.OpsExecuted += hr.OpsExecuted
	}
	return res, nil
}
