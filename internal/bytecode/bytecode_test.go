package bytecode_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/checkers"
	"repro/internal/compiler"
	"repro/internal/difftest"
	"repro/internal/indus/parser"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// f is a width-annotated field read.
func f(ref string, w int) pipeline.Field {
	return pipeline.Field{Ref: pipeline.FieldRef(ref), Width: w}
}

func c(w int, v uint64) pipeline.Const { return pipeline.C(w, v) }

func bin(op pipeline.OpCode, x, y pipeline.Expr) pipeline.Expr {
	return pipeline.Bin{Op: op, X: x, Y: y}
}

// tortureProgram exercises every IR construct and the semantic edge
// cases the VM must preserve bit-for-bit: telemetry scalars and
// arrays, scratch arrays with shift-eviction and out-of-range slot
// writes, width-defaulted reads of never-written fields, eager
// compilation of short-circuit operators over division by zero,
// oversized shifts, two's-complement abs/neg, mux, exact and TCAM
// tables, registers, and nested control flow.
func tortureProgram() *pipeline.Program {
	hopsF := pipeline.Field{Ref: pipeline.FieldHops, Width: 8}
	h0 := f("hdr.x.h0", 8)
	return &pipeline.Program{
		Name: "torture",
		Tables: []pipeline.TableSpec{
			{
				Name:         "exact_t",
				Keys:         []pipeline.KeySpec{{Name: "k", Width: 8, Kind: pipeline.MatchExact}},
				Outputs:      []pipeline.FieldRef{"exact_t.out"},
				OutputWidths: []int{16},
				Default:      []pipeline.Value{pipeline.B(16, 7)},
			},
			{
				Name:         "tcam_t",
				Keys:         []pipeline.KeySpec{{Name: "k", Width: 8, Kind: pipeline.MatchTernary}},
				Outputs:      []pipeline.FieldRef{"tcam_t.out"},
				OutputWidths: []int{8},
				Default:      []pipeline.Value{pipeline.B(8, 9)},
			},
		},
		Registers: []pipeline.RegisterSpec{{Name: "reg", Width: 16, Size: 4}},
		Tele: []pipeline.TeleField{
			{Name: "t_scalar", Width: 12},
			{Name: "t_arr", Width: 5, IsArray: true, Cap: 3},
		},
		HeaderBindings: map[string]string{"h0": "hdr.x.h0"},
		Init: []pipeline.Op{
			pipeline.AssignOp{Dst: "t_scalar", DstWidth: 12, Src: c(12, 1)},
		},
		Telemetry: []pipeline.Op{
			// Accumulating telemetry scalar (wraps at 12 bits).
			pipeline.AssignOp{Dst: "t_scalar", DstWidth: 12, Src: bin(pipeline.OpAdd,
				f("t_scalar", 12), bin(pipeline.OpMul, h0, c(12, 3)))},
			// Telemetry array: evicts oldest once 3 hops have pushed.
			pipeline.PushOp{Base: "t_arr", ElemWidth: 5, Cap: 3, Src: hopsF},
			// Scratch array, reset every hop.
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: h0},
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: bin(pipeline.OpBXor, h0, c(7, 0x55))},
			pipeline.PushOp{Base: "s_arr", ElemWidth: 7, Cap: 2, Src: c(7, 1)}, // evicts
			// Slot write, out of range when h0 >= 4.
			pipeline.SetSlotOp{Base: "s2", ElemWidth: 9, Cap: 4, Index: h0, Src: bin(pipeline.OpAdd, h0, c(9, 100))},
			// TCAM apply keyed by the header.
			pipeline.ApplyOp{Table: "tcam_t", Keys: []pipeline.Expr{h0}},
			// Register accumulation: reg[1] += h0 + tcam hit flag.
			pipeline.RegReadOp{Reg: "reg", Index: c(2, 1), Dst: "regv", Width: 16},
			pipeline.RegWriteOp{Reg: "reg", Index: c(2, 1), Src: bin(pipeline.OpAdd,
				f("regv", 16), bin(pipeline.OpAdd, h0, f("tcam_t.$hit", 1)))},
		},
		Checker: []pipeline.Op{
			// Exact apply keyed by the scalar's low byte.
			pipeline.ApplyOp{Table: "exact_t", Keys: []pipeline.Expr{bin(pipeline.OpBAnd, f("t_scalar", 12), c(12, 0xFF))}},
			// Eager || and && over division by a possibly-zero header.
			pipeline.AssignOp{Dst: "lazy", DstWidth: 1, Src: bin(pipeline.OpLOr,
				bin(pipeline.OpEq, h0, c(8, 0)),
				bin(pipeline.OpEq, bin(pipeline.OpDiv, c(8, 8), h0), c(8, 2)))},
			pipeline.AssignOp{Dst: "lazy2", DstWidth: 1, Src: bin(pipeline.OpLAnd,
				bin(pipeline.OpNe, h0, c(8, 0)),
				bin(pipeline.OpGt, bin(pipeline.OpMod, c(8, 200), h0), c(8, 1)))},
			// Oversized shift amounts yield zero.
			pipeline.AssignOp{Dst: "bigshift", DstWidth: 8, Src: c(8, 200)},
			pipeline.AssignOp{Dst: "sh", DstWidth: 16, Src: bin(pipeline.OpShl, c(16, 3), f("bigshift", 8))},
			// Two's-complement abs/neg, max/min, mux on the TCAM hit.
			pipeline.AssignOp{Dst: "absv", DstWidth: 8, Src: pipeline.Unary{Op: pipeline.OpAbs,
				X: bin(pipeline.OpSub, h0, c(8, 9))}},
			pipeline.AssignOp{Dst: "mm", DstWidth: 12, Src: bin(pipeline.OpMax,
				f("t_scalar", 12), bin(pipeline.OpMin, f("absv", 8), c(12, 6)))},
			pipeline.AssignOp{Dst: "muxv", DstWidth: 8, Src: pipeline.Mux{
				Cond: f("tcam_t.$hit", 1),
				X:    f("tcam_t.out", 8),
				Y:    pipeline.Unary{Op: pipeline.OpNeg, X: h0},
			}},
			// Nested control flow raising width-sensitive reports:
			// "unwritten.field" is never assigned, so its report arg must
			// carry the declared 9-bit width with value zero.
			pipeline.IfOp{
				Cond: bin(pipeline.OpGt, f("regv", 16), c(16, 3)),
				Then: []pipeline.Op{
					pipeline.IfOp{
						Cond: f("lazy", 1),
						Then: []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{
							f("regv", 16), f("unwritten.field", 9), f("t_arr.$count", 8),
							f("s_arr.1", 7), f("mm", 12),
						}}},
						Else: []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{f("muxv", 8), f("sh", 16)}}},
					},
				},
				Else: []pipeline.Op{
					pipeline.AssignOp{Dst: "mm", DstWidth: 12, Src: c(12, 0xFFF)},
				},
			},
			// Reject when the trace ran 3+ hops and the exact table hit.
			pipeline.AssignOp{Dst: pipeline.FieldReject, DstWidth: 1, Src: bin(pipeline.OpLAnd,
				bin(pipeline.OpGe, hopsF, c(8, 3)), f("exact_t.$hit", 1))},
		},
	}
}

// installTorture populates one switch state with table entries for the
// torture program.
func installTorture(t *testing.T, st *pipeline.State) {
	t.Helper()
	// 1*… accumulations land on a few of these exact keys depending on
	// the header sequence; cover hit and miss.
	for _, k := range []uint64{1, 13, 25, 52, 61, 97} {
		if err := st.Tables["exact_t"].Insert(pipeline.Entry{
			Keys:   []pipeline.KeyMatch{pipeline.ExactKey(k)},
			Action: []pipeline.Value{pipeline.B(16, 1000+k)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Ternary: match any key with low bit set, higher priority for 0x03.
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x01, 0x01)},
		Priority: 1,
		Action:   []pipeline.Value{pipeline.B(8, 21)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x03, 0x03)},
		Priority: 2,
		Action:   []pipeline.Value{pipeline.B(8, 42)},
	}); err != nil {
		t.Fatal(err)
	}
}

// tortureTraces covers one-hop, mid-length and eviction-length traces
// with header values hitting the div-by-zero, out-of-range-slot, and
// TCAM priority paths.
func tortureTraces() [][]uint64 {
	return [][]uint64{
		{0},
		{4},
		{1, 0},
		{3, 7, 2},
		{0, 1, 2, 3, 4},
		{9, 5, 250, 0, 1, 6, 7},
	}
}

// sinkProgram is a second hand-written IR program covering the forms
// the torture program leaves out: a ternary+range TCAM table keyed by
// two headers, an exact table of five columns (packed into one word, one
// of its keys a 16-bit header the site masks to its 8-bit column),
// indexed header-stack writes under a branch, register
// writes in an else arm, static array-slot references inside and beyond
// the stack's capacity, and a report carrying builtin, telemetry and
// array-slot arguments. aligned selects the byte-aligned wire layout.
func sinkProgram(aligned bool) *pipeline.Program {
	fx, fy := f("hdr.x", 32), f("hdr.y", 16)
	acc := f("hydra_header.acc", 12)
	return &pipeline.Program{
		Name:        "sink",
		AlignedTele: aligned,
		Tables: []pipeline.TableSpec{
			{
				Name:    "t_exact",
				Keys:    []pipeline.KeySpec{{Name: "x", Width: 32}, {Name: "y", Width: 16}},
				Outputs: []pipeline.FieldRef{"ctrl.ex_out"}, OutputWidths: []int{16},
				Default: []pipeline.Value{pipeline.B(16, 0x0BEE)},
			},
			{
				Name: "t_acl",
				Keys: []pipeline.KeySpec{
					{Name: "x", Width: 32, Kind: pipeline.MatchTernary},
					{Name: "y", Width: 16, Kind: pipeline.MatchRange},
				},
				Outputs: []pipeline.FieldRef{"ctrl.acl"}, OutputWidths: []int{8},
				Default: []pipeline.Value{pipeline.B(8, 0)},
			},
			{
				Name:    "t_wide",
				Keys:    []pipeline.KeySpec{{Width: 8}, {Width: 8}, {Width: 8}, {Width: 8}, {Width: 8}},
				Outputs: []pipeline.FieldRef{"ctrl.wide"}, OutputWidths: []int{8},
				Default: []pipeline.Value{pipeline.B(8, 1)},
			},
		},
		Registers: []pipeline.RegisterSpec{{Name: "r", Width: 32, Size: 4}},
		Tele: []pipeline.TeleField{
			{Name: "hydra_header.acc", Width: 12},
			{Name: "hydra_header.path", Width: 9, IsArray: true, Cap: 3},
		},
		HeaderBindings: map[string]string{"x": "hdr.x", "y": "hdr.y"},
		Init: []pipeline.Op{
			pipeline.AssignOp{Dst: "hydra_header.acc", DstWidth: 12, Src: c(12, 5)},
		},
		Telemetry: []pipeline.Op{
			pipeline.ApplyOp{Table: "t_exact", Keys: []pipeline.Expr{fx, fy}},
			pipeline.AssignOp{Dst: "hydra_header.acc", DstWidth: 12,
				Src: bin(pipeline.OpAdd, acc, f("ctrl.ex_out", 16))},
			pipeline.PushOp{Base: "hydra_header.path", ElemWidth: 9, Cap: 3, Src: f(string(pipeline.FieldSwitch), 32)},
			pipeline.IfOp{
				Cond: bin(pipeline.OpGt, acc, c(12, 100)),
				Then: []pipeline.Op{pipeline.SetSlotOp{Base: "hydra_header.path", ElemWidth: 9, Cap: 3, Index: c(2, 0), Src: acc}},
				Else: []pipeline.Op{pipeline.RegWriteOp{Reg: "r",
					Index: bin(pipeline.OpMod, f(string(pipeline.FieldHops), 8), c(8, 4)), Src: acc}},
			},
			pipeline.RegReadOp{Reg: "r", Index: c(2, 1), Dst: "local.rv", Width: 32},
			// path.1 is inside the stack, path.7 beyond its capacity (a
			// distinct, never-set field).
			pipeline.AssignOp{Dst: "local.mux", DstWidth: 9,
				Src: pipeline.Mux{Cond: fx, X: f("hydra_header.path.1", 9), Y: c(9, 3)}},
			pipeline.AssignOp{Dst: "local.oob", DstWidth: 9, Src: f("hydra_header.path.7", 9)},
		},
		Checker: []pipeline.Op{
			pipeline.ApplyOp{Table: "t_acl", Keys: []pipeline.Expr{fx, fy}},
			pipeline.ApplyOp{Table: "t_wide", Keys: []pipeline.Expr{c(8, 1), c(8, 2), c(8, 3), fy, c(8, 5)}},
			pipeline.IfOp{
				Cond: bin(pipeline.OpLAnd,
					bin(pipeline.OpEq, f("ctrl.acl", 8), c(8, 2)),
					f("t_acl.$hit", 1)),
				Then: []pipeline.Op{
					pipeline.AssignOp{Dst: pipeline.FieldReject, DstWidth: 1, Src: c(1, 1)},
					pipeline.ReportOp{Args: []pipeline.Expr{
						f(string(pipeline.FieldSwitch), 32), acc, f("hydra_header.path.0", 9),
						f("ctrl.wide", 8), f("local.rv", 32), f("local.mux", 9), f("local.oob", 9)}},
				},
			},
		},
	}
}

func installSink(t *testing.T, st *pipeline.State) {
	t.Helper()
	inserts := []struct {
		table string
		e     pipeline.Entry
	}{
		{"t_exact", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(10), pipeline.ExactKey(20)}, Action: []pipeline.Value{pipeline.B(16, 200)}}},
		{"t_exact", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(11), pipeline.ExactKey(21)}, Action: []pipeline.Value{pipeline.B(16, 300)}}},
		{"t_acl", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.TernaryKey(8, 0xC), pipeline.RangeKey(15, 30)}, Priority: 10, Action: []pipeline.Value{pipeline.B(8, 2)}}},
		{"t_acl", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.AnyKey(), pipeline.RangeKey(0, 1000)}, Priority: 1, Action: []pipeline.Value{pipeline.B(8, 7)}}},
		{"t_wide", pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(1), pipeline.ExactKey(2), pipeline.ExactKey(3), pipeline.ExactKey(21), pipeline.ExactKey(5)}, Action: []pipeline.Value{pipeline.B(8, 9)}}},
	}
	for _, ins := range inserts {
		if err := st.Tables[ins.table].Insert(ins.e); err != nil {
			t.Fatalf("insert into %s: %v", ins.table, err)
		}
	}
}

// setSlot resolves a field of a set of one's program to its slot in the
// set's PHV.
func setSlot(t testing.TB, vm *difftest.Linked, f pipeline.FieldRef) int32 {
	t.Helper()
	s, ok := vm.Set.SlotOf(0, f)
	if !ok {
		t.Fatalf("%s not interned", f)
	}
	return s
}

// headerIndex resolves a path the stage's programs bind to its path
// index, for Stage.SetHeader.
func headerIndex(t testing.TB, vm *difftest.Linked, path string) int {
	t.Helper()
	i := slices.Index(vm.Paths(), path)
	if i < 0 {
		t.Fatalf("%s not bound", path)
	}
	return i
}

// sinkHdr is one hop's header bindings for the sink program.
func sinkHdr(x, y uint64) map[string]pipeline.Value {
	return map[string]pipeline.Value{"hdr.x": pipeline.B(32, x), "hdr.y": pipeline.B(16, y)}
}

// parityCase is one program with its state installer and the traces
// (header bindings per hop) the parity tests thread through it.
type parityCase struct {
	name    string
	prog    *pipeline.Program
	install func(*testing.T, *pipeline.State)
	traces  [][]map[string]pipeline.Value
	reg     string
	rejects bool // some trace must end in a reject
}

func parityCases() []parityCase {
	var torture [][]map[string]pipeline.Value
	for _, headers := range tortureTraces() {
		var tr []map[string]pipeline.Value
		for _, hv := range headers {
			tr = append(tr, map[string]pipeline.Value{"hdr.x.h0": pipeline.B(8, hv)})
		}
		torture = append(torture, tr)
	}
	sink := [][]map[string]pipeline.Value{
		// The last hop matches the t_acl ternary entry (x&0xC == 8,
		// 15 <= y <= 30): reject and report.
		{sinkHdr(10, 20), sinkHdr(11, 21), sinkHdr(12, 22), sinkHdr(0xFB, 25)},
		{sinkHdr(0xFB, 25)},
		{sinkHdr(0, 21), sinkHdr(11, 21)},
	}
	return []parityCase{
		{"torture", tortureProgram(), installTorture, torture, "reg", false},
		{"sink", sinkProgram(false), installSink, sink, "r", true},
		{"sink-aligned", sinkProgram(true), installSink, sink, "r", true},
	}
}

// linkOne links prog as a set of one on a context of its own.
func linkOne(t testing.TB, prog *pipeline.Program) *difftest.Linked {
	t.Helper()
	vm, err := difftest.Link(&compiler.Runtime{Prog: prog})
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return vm
}

// TestVMPerHopParity threads the per-hop blob roundtrip through the map
// reference and the bytecode VM (a set of one, every hop one wire pass
// on one resident context) and demands identical HopResults — blob
// bytes, verdicts, reports, and performance counters — at every hop.
func TestVMPerHopParity(t *testing.T) {
	for _, pc := range parityCases() {
		rtRef := difftest.Reference{Prog: pc.prog}
		rtVM := linkOne(t, pc.prog)
		rejects, reports := 0, 0
		for ti, trace := range pc.traces {
			stRef, stVM := pc.prog.NewState(), pc.prog.NewState()
			pc.install(t, stRef)
			pc.install(t, stVM)

			var blobRef, blobVM []byte
			for i, hdr := range trace {
				first, last := i == 0, i == len(trace)-1
				hrRef, err := rtRef.RunHop(blobRef, difftest.HopEnv{State: stRef, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 100}, first, last)
				if err != nil {
					t.Fatalf("%s trace %d hop %d map: %v", pc.name, ti, i, err)
				}
				hrVM, err := rtVM.RunHop(blobVM, difftest.HopEnv{State: stVM, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 100}, first, last)
				if err != nil {
					t.Fatalf("%s trace %d hop %d vm: %v", pc.name, ti, i, err)
				}
				if !bytes.Equal(hrRef.Blob, hrVM.Blob) {
					t.Fatalf("%s trace %d hop %d blob: map %x vm %x", pc.name, ti, i, hrRef.Blob, hrVM.Blob)
				}
				if hrRef.Reject != hrVM.Reject {
					t.Fatalf("%s trace %d hop %d reject: map %v vm %v", pc.name, ti, i, hrRef.Reject, hrVM.Reject)
				}
				if !reflect.DeepEqual(hrRef.Reports, hrVM.Reports) {
					t.Fatalf("%s trace %d hop %d reports: map %+v vm %+v", pc.name, ti, i, hrRef.Reports, hrVM.Reports)
				}
				if hrRef.TableApplies != hrVM.TableApplies || hrRef.OpsExecuted != hrVM.OpsExecuted {
					t.Fatalf("%s trace %d hop %d counters: map (%d,%d) vm (%d,%d)", pc.name, ti, i,
						hrRef.TableApplies, hrRef.OpsExecuted, hrVM.TableApplies, hrVM.OpsExecuted)
				}
				blobRef, blobVM = hrRef.Blob, hrVM.Blob
				reports += len(hrVM.Reports)
				if hrVM.Reject {
					rejects++
				}
			}

			// Register state converged identically.
			for i := 0; i < 4; i++ {
				if a, b := stRef.Registers[pc.reg].Read(i), stVM.Registers[pc.reg].Read(i); a != b {
					t.Fatalf("%s trace %d %s[%d]: map %d vm %d", pc.name, ti, pc.reg, i, a, b)
				}
			}
		}
		if reports == 0 || (pc.rejects && rejects == 0) {
			t.Fatalf("%s: vacuous traces (%d rejects, %d reports)", pc.name, rejects, reports)
		}
	}
}

// TestVMResidentTraceParity pins the key batching lemma: whole-trace
// resident-PHV execution (no per-hop codec) is byte-equivalent to the
// pass-by-pass blob roundtrip.
func TestVMResidentTraceParity(t *testing.T) {
	for _, pc := range parityCases() {
		vm := linkOne(t, pc.prog)
		for ti, trace := range pc.traces {
			stHop, stVM := pc.prog.NewState(), pc.prog.NewState()
			pc.install(t, stHop)
			pc.install(t, stVM)

			hopEnvs := make([]difftest.HopEnv, len(trace))
			vmEnvs := make([]difftest.HopEnv, len(trace))
			for i, hdr := range trace {
				hopEnvs[i] = difftest.HopEnv{State: stHop, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 64}
				vmEnvs[i] = difftest.HopEnv{State: stVM, SwitchID: uint32(i%3 + 1), Headers: hdr, PacketLen: 64}
			}
			wire, err := vm.RunTrace([][]difftest.HopEnv{hopEnvs}, difftest.Wire)
			if err != nil {
				t.Fatalf("%s trace %d per-hop: %v", pc.name, ti, err)
			}
			resident, err := vm.RunTrace([][]difftest.HopEnv{vmEnvs}, difftest.Resident)
			if err != nil {
				t.Fatalf("%s trace %d resident: %v", pc.name, ti, err)
			}
			want, got := wire[0], resident[0]
			if want.Reject != got.Reject {
				t.Fatalf("%s trace %d reject: per-hop %v resident %v", pc.name, ti, want.Reject, got.Reject)
			}
			if !bytes.Equal(want.FinalBlob, got.FinalBlob) {
				t.Fatalf("%s trace %d final blob: per-hop %x resident %x", pc.name, ti, want.FinalBlob, got.FinalBlob)
			}
			if !reflect.DeepEqual(want.Reports, got.Reports) {
				t.Fatalf("%s trace %d reports: per-hop %+v resident %+v", pc.name, ti, want.Reports, got.Reports)
			}
		}
	}
}

// TestVMLiveInstall proves control-plane installs into a live State are
// visible to a resident context at its next lookup without recompiling,
// across both table flavors: the exact path reads the table's snapshot
// directly, the TCAM path walks the table's entries under its read lock.
func TestVMLiveInstall(t *testing.T) {
	prog := sinkProgram(false)
	vm := linkOne(t, prog)
	st := prog.NewState()
	installSink(t, st)
	aclSlot, exSlot := setSlot(t, vm, "ctrl.acl"), setSlot(t, vm, "ctrl.ex_out")

	envs := []difftest.HopEnv{{State: st, SwitchID: 1, Headers: sinkHdr(100, 500), PacketLen: 100}}
	blob := make([]byte, 0, vm.Set.TeleWireBytes())
	run := func() (acl, ex uint64) {
		if _, _, err := vm.Pass(blob, envs, bytecode.BlockTelemetry|bytecode.BlockChecker, true, true); err != nil {
			t.Fatal(err)
		}
		return vm.Ctx.PHV[aclSlot], vm.Ctx.PHV[exSlot]
	}

	if acl, ex := run(); acl != 7 || ex != 0x0BEE {
		t.Fatalf("pre-install: acl=%d ex=%#x, want 7 and 0xbee", acl, ex)
	}
	aclTbl := st.Tables["t_acl"]
	if err := aclTbl.Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(100, 0xFFFF), pipeline.RangeKey(400, 600)},
		Priority: 50, Action: []pipeline.Value{pipeline.B(8, 42)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Tables["t_exact"].Insert(pipeline.Entry{
		Keys: []pipeline.KeyMatch{pipeline.ExactKey(100), pipeline.ExactKey(500)}, Action: []pipeline.Value{pipeline.B(16, 777)},
	}); err != nil {
		t.Fatal(err)
	}
	if acl, ex := run(); acl != 42 || ex != 777 {
		t.Fatalf("post-install: acl=%d ex=%d, want 42 and 777", acl, ex)
	}

	if n := aclTbl.Delete([]pipeline.KeyMatch{pipeline.TernaryKey(100, 0xFFFF), pipeline.RangeKey(400, 600)}); n != 1 {
		t.Fatalf("Delete removed %d entries, want 1", n)
	}
	if acl, _ := run(); acl != 7 {
		t.Fatalf("post-delete: acl=%d, want 7", acl)
	}

	// The same hop, steady state, allocates nothing: packed-exact
	// applies of two and five columns and a TCAM apply plus the
	// in-place encode; and neither do the table lookups themselves.
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(200, func() { run() }); n > 0 {
		t.Errorf("resident telemetry+checker hop: %.1f allocs/run, want 0", n)
	}
	tbl := st.Tables["t_exact"]
	if n := testing.AllocsPerRun(200, func() {
		if _, hit := tbl.LookupPacked(pipeline.PackedKey{10, 20}); !hit {
			t.Fatal("packed lookup missed")
		}
	}); n > 0 {
		t.Errorf("LookupPacked: %.1f allocs/run, want 0", n)
	}
	vals := []uint64{10, 20}
	if n := testing.AllocsPerRun(200, func() {
		if _, hit := tbl.Lookup(vals); !hit {
			t.Fatal("exact lookup missed")
		}
	}); n > 0 {
		t.Errorf("exact Lookup: %.1f allocs/run, want 0", n)
	}
}

// TestApplyZeroFillsUnusedColumns pins the apply site's half of the
// LookupWords contract: the site packs its key into the table's words and
// a word the key does not fill must be zero, so runApply must hand a
// narrower table words it filled itself, whatever a wider apply left
// behind. Every narrow apply here follows a four-column one, two words
// of two 32-bit columns each, and must hit.
func TestApplyZeroFillsUnusedColumns(t *testing.T) {
	fx, fy := f("hdr.x", 32), f("hdr.y", 16)
	four := pipeline.ApplyOp{Table: "t4", Keys: []pipeline.Expr{fx, fy, fx, fy}}
	prog := &pipeline.Program{Name: "widths", HeaderBindings: map[string]string{"x": "hdr.x", "y": "hdr.y"}}
	for n := 0; n <= 4; n++ {
		name := fmt.Sprintf("t%d", n)
		prog.Tables = append(prog.Tables, pipeline.TableSpec{
			Name: name, Keys: make([]pipeline.KeySpec, n),
			Outputs: []pipeline.FieldRef{pipeline.FieldRef("ctrl.o" + name)}, OutputWidths: []int{8},
			Default: []pipeline.Value{pipeline.B(8, 0)},
		})
		for i := range prog.Tables[n].Keys {
			prog.Tables[n].Keys[i].Width = 32
		}
		if n < 4 {
			prog.Checker = append(prog.Checker, four, pipeline.ApplyOp{Table: name, Keys: []pipeline.Expr{fx, fy, fx}[:n]})
		}
	}
	vm := linkOne(t, prog)
	st := prog.NewState()
	for n := 0; n <= 4; n++ {
		keys := []pipeline.KeyMatch{pipeline.ExactKey(7), pipeline.ExactKey(9), pipeline.ExactKey(7), pipeline.ExactKey(9)}[:n]
		if err := st.Tables[fmt.Sprintf("t%d", n)].Insert(pipeline.Entry{Keys: keys, Action: []pipeline.Value{pipeline.B(8, uint64(n+1))}}); err != nil {
			t.Fatal(err)
		}
	}
	envs := []difftest.HopEnv{{State: st, SwitchID: 1, Headers: sinkHdr(7, 9), PacketLen: 100}}
	if _, _, err := vm.Pass(nil, envs, bytecode.BlockChecker, true, true); err != nil {
		t.Fatal(err)
	}
	phv := vm.Ctx.PHV
	for n := 0; n <= 4; n++ {
		out := setSlot(t, vm, pipeline.FieldRef(fmt.Sprintf("ctrl.ot%d", n)))
		hit := setSlot(t, vm, st.Tables[fmt.Sprintf("t%d", n)].HitField())
		if phv[out] != uint64(n+1) || phv[hit] != 1 {
			t.Errorf("%d-column apply after a 4-column one: out %d hit %d, want %d and 1", n, phv[out], phv[hit], n+1)
		}
	}
}

// TestApplyMasksKeysToColumnWidths: a key expression wider than its
// column reaches the table as the column's declared bits, as Table.Lookup
// packs the same values: the site masks each column before it places it,
// so no stray bit reaches the column or its neighbour — in a key of one
// word (two 8-bit columns) and in one of two (60 + 8 bits).
func TestApplyMasksKeysToColumnWidths(t *testing.T) {
	fy := f("hdr.y", 16)
	table := func(name string, widths ...int) pipeline.TableSpec {
		keys := make([]pipeline.KeySpec, len(widths))
		for i, w := range widths {
			keys[i].Width = w
		}
		return pipeline.TableSpec{Name: name, Keys: keys, Outputs: []pipeline.FieldRef{pipeline.FieldRef("ctrl." + name)},
			OutputWidths: []int{8}, Default: []pipeline.Value{pipeline.B(8, 0)}}
	}
	prog := &pipeline.Program{Name: "mask", HeaderBindings: map[string]string{"x": "hdr.x", "y": "hdr.y"},
		Tables: []pipeline.TableSpec{table("one", 8, 8), table("two", 60, 8)},
		Checker: []pipeline.Op{
			pipeline.ApplyOp{Table: "one", Keys: []pipeline.Expr{fy, fy}},
			pipeline.ApplyOp{Table: "two", Keys: []pipeline.Expr{fy, fy}},
		},
	}
	vm := linkOne(t, prog)
	st := prog.NewState()
	const y = 0x1209 // 16 bits into 8-bit columns: 0x09 is the key
	for name, key := range map[string][]uint64{"one": {0x09, 0x09}, "two": {y, 0x09}} {
		tbl := st.Tables[name]
		if err := tbl.Insert(pipeline.Entry{Keys: []pipeline.KeyMatch{pipeline.ExactKey(key[0]), pipeline.ExactKey(key[1])}, Action: []pipeline.Value{pipeline.B(8, 5)}}); err != nil {
			t.Fatal(err)
		}
		if _, hit := tbl.Lookup([]uint64{y, y}); !hit {
			t.Fatalf("%s: Table.Lookup of the wide values misses", name)
		}
	}
	envs := []difftest.HopEnv{{State: st, SwitchID: 1, Headers: sinkHdr(7, y), PacketLen: 100}}
	if _, _, err := vm.Pass(nil, envs, bytecode.BlockChecker, true, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"one", "two"} {
		if out := vm.Ctx.PHV[setSlot(t, vm, pipeline.FieldRef("ctrl."+name))]; out != 5 {
			t.Errorf("%s: the apply of a 16-bit key into 8-bit columns read %d, want the entry's 5", name, out)
		}
	}
}

// TestTwoWidthFieldRefused holds Compile to one static width per slot: IR
// that reads a field at two widths, or reads it at one and writes it at
// another, is refused with an error naming the field — the map reference
// would give such a field whichever width was stored last.
func TestTwoWidthFieldRefused(t *testing.T) {
	for _, c := range []struct {
		field string
		ops   []pipeline.Op
	}{
		{"hdr.x", []pipeline.Op{pipeline.ReportOp{Args: []pipeline.Expr{f("hdr.x", 8), f("hdr.x", 16)}}}},
		{"meta.y", []pipeline.Op{
			pipeline.AssignOp{Dst: "meta.y", DstWidth: 16, Src: f("hdr.x", 8)},
			pipeline.ReportOp{Args: []pipeline.Expr{f("meta.y", 8)}},
		}},
	} {
		prog := &pipeline.Program{Name: "two-widths", HeaderBindings: map[string]string{"x": "hdr.x"}, Checker: c.ops}
		if _, err := bytecode.Compile(prog); err == nil || !strings.Contains(err.Error(), "field "+c.field+" ") {
			t.Errorf("%s at two widths: Compile returned %v, want an error naming it", c.field, err)
		}
	}
}

// TestCorpusCompiles compiles every corpus checker to bytecode.
func TestCorpusCompiles(t *testing.T) {
	for _, p := range checkers.All {
		prog, err := parser.Parse(p.Key, p.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.Key, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("%s: types: %v", p.Key, err)
		}
		compiled, err := compiler.Compile(info, compiler.Options{Name: p.Key})
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Key, err)
		}
		vp, err := bytecode.Compile(compiled)
		if err != nil {
			t.Fatalf("%s: bytecode: %v", p.Key, err)
		}
		if len(bytecode.OpcodeCounts(vp)) == 0 {
			t.Fatalf("%s: empty bytecode", p.Key)
		}
		if len(bytecode.LinkSet([]bytecode.Member{{Prog: vp}}).NewCtx().PHV) == 0 {
			t.Fatalf("%s: empty PHV", p.Key)
		}
	}
}

// TestInstallVisibleAtNextLookup pins the freshness contract of a TCAM
// apply site on a resident context between passes of one trace: nothing
// memoizes a lookup, so the pass after an install sees it.
func TestInstallVisibleAtNextLookup(t *testing.T) {
	prog := tortureProgram()
	vm := linkOne(t, prog)
	st := prog.NewState()
	installTorture(t, st)
	vm.Row[0] = st
	slot, h0 := setSlot(t, vm, "tcam_t.out"), headerIndex(t, vm, "hdr.x.h0")
	run := func(v uint64) uint64 {
		vm.SetHeader(h0, v)
		vm.Run(1, 100, true, false, bytecode.HopBlocks(true, false)) // init and telemetry
		return vm.Ctx.PHV[slot]
	}

	if got := run(0x04); got != 9 { // miss -> default
		t.Fatalf("pre-install lookup = %d, want default 9", got)
	}
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x04, 0x04)},
		Priority: 3,
		Action:   []pipeline.Value{pipeline.B(8, 77)},
	}); err != nil {
		t.Fatal(err)
	}
	if got := run(0x04); got != 77 {
		t.Fatalf("lookup after the install = %d, want 77", got)
	}
}

// TestVMSteadyStateAllocs drives whole-trace executions with ephemeral
// reports through a persistent context and requires zero allocations
// per trace at steady state — the property the engine's batch path is
// built on.
func TestVMSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	prog := tortureProgram()
	vm := linkOne(t, prog)
	st := prog.NewState()
	installTorture(t, st)
	vm.Row[0] = st
	h0 := headerIndex(t, vm, "hdr.x.h0")
	set, c := vm.Set, vm.Ctx

	headers := []uint64{9, 5, 250, 1}
	var sink int
	count := func(_ int, reps []pipeline.Report) { sink += len(reps) }
	trace := func() {
		set.BeginTrace(c)
		for i, v := range headers {
			first, last := i == 0, i == len(headers)-1
			vm.SetHeader(h0, v)
			sink += int(vm.Run(uint32(i%3+1), 100, first, last, bytecode.HopBlocks(first, last)))
			vm.Reports(count)
		}
	}
	for i := 0; i < 10; i++ { // warmup: arena, report buffer
		trace()
	}
	if n := testing.AllocsPerRun(200, trace); n > 0 {
		t.Fatalf("steady-state trace allocates %v times, want 0 (sink %d)", n, sink)
	}
}

// TestDecodeErrors pins the truncated-blob error and the blob size
// against the map reference's codec.
func TestDecodeErrors(t *testing.T) {
	prog := tortureProgram()
	vm := linkOne(t, prog)
	size := vm.Set.TeleWireBytes()
	if want := (prog.TeleWireBits() + 7) / 8; size != want {
		t.Fatalf("TeleWireBytes: vm %d map %d", size, want)
	}
	short := make([]byte, size-1)
	if err := vm.Set.DecodeTele(short, vm.Ctx.PHV); err == nil {
		t.Fatal("short blob: want error")
	}
	if err := prog.DecodeTele(short, pipeline.PHV{}); err == nil {
		t.Fatal("short blob: the map reference's codec accepted it")
	}
	if err := vm.Set.DecodeTele(nil, vm.Ctx.PHV); err != nil {
		t.Fatalf("empty blob: %v", err)
	}
}

// TestCompileUndeclaredResources pins the compile-time rejection of
// programs touching undeclared state.
func TestCompileUndeclaredResources(t *testing.T) {
	bad := &pipeline.Program{
		Name:    "bad",
		Checker: []pipeline.Op{pipeline.ApplyOp{Table: "nope"}},
	}
	if _, err := bytecode.Compile(bad); err == nil {
		t.Fatal("undeclared table: want error")
	}
	bad2 := &pipeline.Program{
		Name:    "bad2",
		Checker: []pipeline.Op{pipeline.RegReadOp{Reg: "nope", Index: c(1, 0), Dst: "d", Width: 8}},
	}
	if _, err := bytecode.Compile(bad2); err == nil {
		t.Fatal("undeclared register: want error")
	}
}

// TestApplyKeyCountRefused: an apply with more or fewer keys than its
// table has columns is refused at compile time. Packed short it would
// disagree with Table.Lookup, which misses on any other count.
func TestApplyKeyCountRefused(t *testing.T) {
	fx := f("hdr.x", 32)
	for _, n := range []int{1, 3} {
		prog := &pipeline.Program{
			Name: "count", HeaderBindings: map[string]string{"x": "hdr.x"},
			Tables:  []pipeline.TableSpec{{Name: "pair", Keys: []pipeline.KeySpec{{Width: 32}, {Width: 32}}}},
			Checker: []pipeline.Op{pipeline.ApplyOp{Table: "pair", Keys: []pipeline.Expr{fx, fx, fx}[:n]}},
		}
		if _, err := bytecode.Compile(prog); err == nil || !strings.Contains(err.Error(), `"pair"`) {
			t.Errorf("%d keys on two columns: error %v, want one naming the table", n, err)
		}
	}
}

// TestBindRefusesOtherKeyWidths: an apply site packs its key by the
// layout of the table it was compiled against, so binding a row whose
// table declares other key widths panics, naming the table, when the row
// binds — not a packet later with a key packed for the wrong columns.
func TestBindRefusesOtherKeyWidths(t *testing.T) {
	prog := &pipeline.Program{
		Name: "widths", HeaderBindings: map[string]string{"x": "hdr.x"},
		Tables: []pipeline.TableSpec{{Name: "pair", Keys: []pipeline.KeySpec{{Width: 32}, {Width: 32}},
			Outputs: []pipeline.FieldRef{"ctrl.pair"}, OutputWidths: []int{8}, Default: []pipeline.Value{pipeline.B(8, 0)}}},
		Checker: []pipeline.Op{pipeline.ApplyOp{Table: "pair", Keys: []pipeline.Expr{f("hdr.x", 32), f("hdr.x", 32)}}},
	}
	vm := linkOne(t, prog)
	st := prog.NewState()
	st.Tables["pair"] = pipeline.NewTable("pair", []pipeline.KeySpec{{Width: 16}, {Width: 48}}, []pipeline.FieldRef{"ctrl.pair"}, []pipeline.Value{pipeline.B(8, 0)})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `"pair"`) {
			t.Errorf("binding a table of other key widths: panic %v, want one naming the table", r)
		}
	}()
	envs := []difftest.HopEnv{{State: st, SwitchID: 1, Headers: sinkHdr(7, 9), PacketLen: 100}}
	vm.Pass(nil, envs, bytecode.BlockChecker, true, true)
}

// reportProg raises one report per hop carrying the switch ID and the
// bound header, and carries one telemetry field so hops have a blob.
func reportProg() *pipeline.Program {
	return &pipeline.Program{
		Name:           "report-probe",
		Tele:           []pipeline.TeleField{{Name: "hydra_header.t", Width: 12}},
		HeaderBindings: map[string]string{"x": "hdr.x"},
		Checker: []pipeline.Op{
			pipeline.ReportOp{Args: []pipeline.Expr{
				pipeline.Field{Ref: pipeline.FieldSwitch, Width: 32},
				pipeline.Field{Ref: "hdr.x", Width: 32},
			}},
		},
	}
}

// reportBlob and reportEnvs are reportHop's encode target and hop
// environment (locals would cost the alloc test an allocation each).
var (
	reportBlob [3]byte // hop counter (8 bits) + hydra_header.t (12)
	reportEnvs = []difftest.HopEnv{{Headers: map[string]pipeline.Value{}, PacketLen: 100}}
)

// reportHop runs one first-and-last hop of reportProg on vm's context
// and checks the single report it raises.
func reportHop(t *testing.T, vm *difftest.Linked, st *pipeline.State, swID uint32) {
	t.Helper()
	env := &reportEnvs[0]
	env.State, env.SwitchID = st, swID
	env.Headers["hdr.x"] = pipeline.B(32, uint64(swID)+1000)
	if _, _, err := vm.Pass(reportBlob[:0], reportEnvs, bytecode.BlockInit|bytecode.BlockTelemetry|bytecode.BlockChecker, true, true); err != nil {
		t.Fatal(err)
	}
	var got []pipeline.Report
	vm.Reports(func(_ int, reps []pipeline.Report) { got = reps })
	if len(got) != 1 || got[0].Args[0].V != uint64(swID) || got[0].Args[1].V != uint64(swID)+1000 {
		t.Fatalf("hop on switch %d raised %+v", swID, got)
	}
}

// TestEphemeralReportsArena pins the zero-allocation report path
// resident contexts run on: raising a report in ephemeral mode
// allocates nothing at steady state, and each pass's Stage.Run recycles
// the previous one's buffers — a context that is never released holds
// exactly the last pass's reports.
func TestEphemeralReportsArena(t *testing.T) {
	prog := reportProg()
	vm := linkOne(t, prog)
	st := prog.NewState()

	reportHop(t, vm, st, 1) // warm: the first run grows the arena and the report slice
	if !raceEnabled {
		if n := testing.AllocsPerRun(200, func() { reportHop(t, vm, st, 7) }); n > 0 {
			t.Errorf("ephemeral report raise on a resident context: %.1f allocs/run, want 0", n)
		}
	}
}

var benchSink uint64

// BenchmarkBytecodeDispatch measures raw dispatch-loop throughput on
// the torture program's telemetry block (hot per-hop shape: scratch
// reset, bind, exec).
func BenchmarkBytecodeDispatch(b *testing.B) {
	prog := tortureProgram()
	vm := linkOne(b, prog)
	st := prog.NewState()
	for _, k := range []uint64{1, 13, 25} {
		if err := st.Tables["exact_t"].Insert(pipeline.Entry{
			Keys:   []pipeline.KeyMatch{pipeline.ExactKey(k)},
			Action: []pipeline.Value{pipeline.B(16, 1000+k)},
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Tables["tcam_t"].Insert(pipeline.Entry{
		Keys:     []pipeline.KeyMatch{pipeline.TernaryKey(0x01, 0x01)},
		Priority: 1,
		Action:   []pipeline.Value{pipeline.B(8, 21)},
	}); err != nil {
		b.Fatal(err)
	}
	vm.Row[0] = st
	vm.SetHeader(headerIndex(b, vm, "hdr.x.h0"), 9)
	set, c := vm.Set, vm.Ctx
	set.BeginTrace(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Run(1, 100, false, false, bytecode.BlockTelemetry) // a middle hop
		benchSink += c.PHV[0]
	}
}
