package compiler

import (
	"sync"

	"repro/internal/bytecode"
	"repro/internal/pipeline"
)

// Runtime is a compiled program as the packet paths hold it: the IR, the
// placement of its checker block, and its bytecode form, compiled once.
// Nothing here executes. An engine shard, a netsim switch or a NIC links
// the Member of every checker it runs into one bytecode.Stage (§4.2) and
// runs that; a program the VM cannot compile is refused (VMErr) or left
// out of the image. The reference semantics the VM is tested against live
// in internal/difftest.
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

// Member is the program as the i-th member of a linked image: i is its
// position in the state row and the owner tag of its reports. A program
// without a VM form keeps its telemetry record's place in the blob.
func (r *Runtime) Member(i int) bytecode.Member {
	return bytecode.Member{Prog: r.VM(), Index: i, CheckEveryHop: r.CheckEveryHop, TeleBytes: (r.Prog.TeleWireBits() + 7) / 8}
}
