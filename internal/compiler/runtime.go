package compiler

import (
	"fmt"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/pipeline"
)

// Runtime is a compiled program as the packet paths hold it: the IR, the
// placement of its checker block, and its bytecode form, compiled once.
// Nothing here executes. An engine shard, a netsim switch or a NIC links
// the Member of every checker it runs into one bytecode.Stage (§4.2) and
// runs that; a program the VM cannot compile (VMErr) is refused where it
// is attached, never linked around. The reference semantics the VM is
// tested against live in internal/difftest.
type Runtime struct {
	Prog *pipeline.Program
	// CheckEveryHop enables the §4.3 per-hop checking variant: the
	// checker block runs at every hop instead of only the last one, so
	// violations are caught (and packets can be dropped) mid-network.
	CheckEveryHop bool

	vmOnce sync.Once
	vm     *bytecode.Prog
	vmErr  error
}

// VM returns the flat bytecode form of the program, compiling it on
// first use, or nil when compilation fails (VMErr says why).
func (r *Runtime) VM() *bytecode.Prog {
	r.vmOnce.Do(func() { r.vm, r.vmErr = bytecode.Compile(r.Prog) })
	return r.vm
}

// VMErr returns the error that left the program without a VM form: nil
// when VM() is non-nil.
func (r *Runtime) VMErr() error {
	r.VM()
	return r.vmErr
}

// Member is the program as a member of a linked image. It panics, naming
// the program and VMErr, on a program without a VM form: every packet path
// refuses one where it is attached, as Hydra never deploys a checker that
// does not compile (§4.2).
func (r *Runtime) Member() bytecode.Member {
	if err := r.VMErr(); err != nil {
		panic(fmt.Sprintf("compiler: checker %s has no VM form: %v", r.Prog.Name, err))
	}
	return bytecode.Member{Prog: r.VM(), CheckEveryHop: r.CheckEveryHop}
}
