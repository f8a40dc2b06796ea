package pipeline

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if v := B(8, 300); v.V != 44 {
		t.Fatalf("mask: %d", v.V)
	}
	if !BoolV(true).Bool() || BoolV(false).Bool() {
		t.Fatal("BoolV")
	}
	if got := B(8, 0xFE).Signed(); got != -2 {
		t.Fatalf("signed: %d", got)
	}
	if got := B(8, 0x7F).Signed(); got != 127 {
		t.Fatalf("signed positive: %d", got)
	}
	if got := B(64, 5).Signed(); got != 5 {
		t.Fatalf("signed 64: %d", got)
	}
}

func TestExprEval(t *testing.T) {
	phv := PHV{"x": B(8, 200), "y": B(8, 100), "b": BoolV(true)}
	tests := []struct {
		name string
		e    Expr
		want uint64
	}{
		{"add wraps", Bin{Op: OpAdd, X: Field{Ref: "x", Width: 8}, Y: Field{Ref: "y", Width: 8}}, 44},
		{"sub wraps", Bin{Op: OpSub, X: Field{Ref: "y", Width: 8}, Y: Field{Ref: "x", Width: 8}}, 156},
		{"div by zero", Bin{Op: OpDiv, X: Field{Ref: "x", Width: 8}, Y: C(8, 0)}, 0},
		{"mod by zero", Bin{Op: OpMod, X: Field{Ref: "x", Width: 8}, Y: C(8, 0)}, 0},
		{"abs negative", Unary{Op: OpAbs, X: Bin{Op: OpSub, X: Field{Ref: "y", Width: 8}, Y: Field{Ref: "x", Width: 8}}}, 100},
		{"lt", Bin{Op: OpLt, X: Field{Ref: "y", Width: 8}, Y: Field{Ref: "x", Width: 8}}, 1},
		{"max", Bin{Op: OpMax, X: Field{Ref: "x", Width: 8}, Y: Field{Ref: "y", Width: 8}}, 200},
		{"min", Bin{Op: OpMin, X: Field{Ref: "x", Width: 8}, Y: Field{Ref: "y", Width: 8}}, 100},
		{"mux true", Mux{Cond: Field{Ref: "b", Width: 1}, X: C(8, 7), Y: C(8, 9)}, 7},
		{"not", Unary{Op: OpNot, X: Field{Ref: "b", Width: 1}}, 0},
		{"bnot", Unary{Op: OpBNot, X: C(8, 0x0F)}, 0xF0},
		{"shl", Bin{Op: OpShl, X: C(8, 1), Y: C(8, 3)}, 8},
		{"shr overflow", Bin{Op: OpShr, X: C(8, 255), Y: C(8, 70)}, 0},
		{"unset field is zero", Field{Ref: "nope", Width: 16}, 0},
	}
	for _, tt := range tests {
		if got := tt.e.Eval(phv); got.V != tt.want {
			t.Errorf("%s: got %d, want %d", tt.name, got.V, tt.want)
		}
	}
}

func TestShortCircuitEval(t *testing.T) {
	// The Y side of a && must not be evaluated when X is false; we detect
	// evaluation through a panicking expression.
	bomb := panicExpr{}
	e := Bin{Op: OpLAnd, X: C(1, 0), Y: bomb}
	if e.Eval(PHV{}).Bool() {
		t.Fatal("false && _ must be false")
	}
	e2 := Bin{Op: OpLOr, X: C(1, 1), Y: bomb}
	if !e2.Eval(PHV{}).Bool() {
		t.Fatal("true || _ must be true")
	}
}

type panicExpr struct{}

func (panicExpr) Eval(PHV) Value { panic("must not be evaluated") }
func (panicExpr) String() string { return "bomb" }

func TestExactTable(t *testing.T) {
	tbl := NewTable("tenants",
		[]KeySpec{{Name: "port", Width: 8, Kind: MatchExact}},
		[]FieldRef{"ctrl.tenants"},
		[]Value{B(8, 0)})
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(1)}, Action: []Value{B(8, 10)}}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(2)}, Action: []Value{B(8, 20)}}); err != nil {
		t.Fatal(err)
	}
	if v, hit := tbl.Lookup([]uint64{1}); !hit || v[0].V != 10 {
		t.Fatalf("lookup 1: %v %v", v, hit)
	}
	if v, hit := tbl.Lookup([]uint64{9}); hit || v[0].V != 0 {
		t.Fatalf("miss should return default: %v %v", v, hit)
	}
	// Replacement by key.
	if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(1)}, Action: []Value{B(8, 11)}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := tbl.Lookup([]uint64{1}); v[0].V != 11 {
		t.Fatalf("replace failed: %v", v)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len = %d", tbl.Len())
	}
	if n := tbl.Delete([]KeyMatch{ExactKey(1)}); n != 1 {
		t.Fatalf("delete = %d", n)
	}
	if _, hit := tbl.Lookup([]uint64{1}); hit {
		t.Fatal("deleted entry still hits")
	}
}

func TestExactTableRejectsWildcard(t *testing.T) {
	tbl := NewTable("t", []KeySpec{{Width: 8, Kind: MatchExact}}, nil, nil)
	if err := tbl.Insert(Entry{Keys: []KeyMatch{AnyKey()}}); err == nil {
		t.Fatal("wildcard in exact column must be rejected")
	}
}

func TestTernaryPriorityTable(t *testing.T) {
	// Mirrors the Figure 11 Applications table: ipv4 lpm + l4 range +
	// proto exact, with priorities.
	tbl := NewTable("applications",
		[]KeySpec{
			{Name: "ipv4", Width: 32, Kind: MatchLPM},
			{Name: "l4", Width: 16, Kind: MatchRange},
			{Name: "proto", Width: 8, Kind: MatchTernary},
		},
		[]FieldRef{"app_id"},
		[]Value{B(8, 0)})

	const udp = 17
	must := func(e Entry) {
		t.Helper()
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// prio 10: any/any/any -> app 1 (default deny bucket)
	must(Entry{Priority: 10, Keys: []KeyMatch{AnyKey(), AnyKey(), AnyKey()}, Action: []Value{B(8, 1)}})
	// prio 20: any, 81-81, udp -> app 2
	must(Entry{Priority: 20, Keys: []KeyMatch{AnyKey(), RangeKey(81, 81), TernaryKey(udp, 0xff)}, Action: []Value{B(8, 2)}})
	// prio 25: any, 81-82, udp -> app 3
	must(Entry{Priority: 25, Keys: []KeyMatch{AnyKey(), RangeKey(81, 82), TernaryKey(udp, 0xff)}, Action: []Value{B(8, 3)}})

	if v, _ := tbl.Lookup([]uint64{0x0a000001, 80, udp}); v[0].V != 1 {
		t.Fatalf("port 80 -> app %d, want 1", v[0].V)
	}
	// Higher priority 81-82 entry shadows the 81-81 entry.
	if v, _ := tbl.Lookup([]uint64{0x0a000001, 81, udp}); v[0].V != 3 {
		t.Fatalf("port 81 -> app %d, want 3 (shadowed by higher priority)", v[0].V)
	}
	if v, _ := tbl.Lookup([]uint64{0x0a000001, 82, udp}); v[0].V != 3 {
		t.Fatalf("port 82 -> app %d, want 3", v[0].V)
	}
	// TCP port 81 only matches the any/any/any entry.
	if v, _ := tbl.Lookup([]uint64{0x0a000001, 81, 6}); v[0].V != 1 {
		t.Fatalf("tcp 81 -> app %d, want 1", v[0].V)
	}
}

func TestLPMSpecificity(t *testing.T) {
	tbl := NewTable("routes",
		[]KeySpec{{Name: "dst", Width: 32, Kind: MatchLPM}},
		[]FieldRef{"next"},
		[]Value{B(8, 0)})
	must := func(e Entry) {
		t.Helper()
		if err := tbl.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	must(Entry{Keys: []KeyMatch{PrefixKey(0x0a000000, 8)}, Action: []Value{B(8, 1)}})
	must(Entry{Keys: []KeyMatch{PrefixKey(0x0a0a0000, 16)}, Action: []Value{B(8, 2)}})
	must(Entry{Keys: []KeyMatch{PrefixKey(0x0a0a0a00, 24)}, Action: []Value{B(8, 3)}})

	cases := []struct {
		ip   uint64
		want uint64
	}{
		{0x0a010101, 1},
		{0x0a0a0101, 2},
		{0x0a0a0a01, 3},
	}
	for _, c := range cases {
		if v, hit := tbl.Lookup([]uint64{c.ip}); !hit || v[0].V != c.want {
			t.Errorf("ip %08x -> %d (hit=%v), want %d", c.ip, v[0].V, hit, c.want)
		}
	}
	if _, hit := tbl.Lookup([]uint64{0x0b000000}); hit {
		t.Error("unrelated prefix must miss")
	}
}

func TestRegister(t *testing.T) {
	r := NewRegister("load", 16, 4)
	r.Write(2, 0x1FFFF) // masked to 16 bits
	if got := r.Read(2); got != 0xFFFF {
		t.Fatalf("read = %x", got)
	}
	if got := r.Read(99); got != 0 {
		t.Fatal("out-of-range read must be zero")
	}
	r.Write(99, 1) // dropped
	if got := r.Read(2); got != 0xFFFF {
		t.Fatalf("an out-of-range write reached cell 2: read = %x", got)
	}
}

func TestRegisterConcurrency(t *testing.T) {
	r := NewRegister("ctr", 64, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Write(0, r.Read(0)+1) // racy increment; must not panic under -race
			}
		}()
	}
	wg.Wait()
}

func TestTableConcurrentUpdateAndLookup(t *testing.T) {
	tbl := NewTable("t", []KeySpec{{Width: 8, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(8, 0)})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(uint64(i % 16))}, Action: []Value{B(8, uint64(i))}})
		}
	}()
	for i := 0; i < 10000; i++ {
		tbl.Lookup([]uint64{uint64(i % 16)})
	}
	close(stop)
	wg.Wait()
	before := tbl.Version()
	_ = tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(1)}, Action: []Value{B(8, 1)}})
	if tbl.Version() != before+1 {
		t.Fatal("version must advance on mutation")
	}
}

func TestExecOps(t *testing.T) {
	prog := &Program{
		Tables: []TableSpec{{
			Name:         "tenants",
			Keys:         []KeySpec{{Name: "port", Width: 8, Kind: MatchExact}},
			Outputs:      []FieldRef{"ctrl.tenants"},
			OutputWidths: []int{8},
			Default:      []Value{B(8, 0)},
		}},
		Registers: []RegisterSpec{{Name: "count", Width: 32, Size: 1}},
	}
	st := prog.NewState()
	if err := st.Tables["tenants"].Insert(Entry{Keys: []KeyMatch{ExactKey(3)}, Action: []Value{B(8, 42)}}); err != nil {
		t.Fatal(err)
	}

	phv := PHV{"port": B(8, 3)}
	ctx := &ExecContext{PHV: phv, State: st}
	ops := []Op{
		ApplyOp{Table: "tenants", Keys: []Expr{Field{Ref: "port", Width: 8}}},
		AssignOp{Dst: "x", DstWidth: 8, Src: Field{Ref: "ctrl.tenants", Width: 8}},
		RegReadOp{Reg: "count", Index: C(32, 0), Dst: "c", Width: 32},
		RegWriteOp{Reg: "count", Index: C(32, 0), Src: Bin{Op: OpAdd, X: Field{Ref: "c", Width: 32}, Y: C(32, 1)}},
		IfOp{
			Cond: Bin{Op: OpEq, X: Field{Ref: "x", Width: 8}, Y: C(8, 42)},
			Then: []Op{ReportOp{Args: []Expr{Field{Ref: "x", Width: 8}}}},
			Else: []Op{AssignOp{Dst: FieldReject, DstWidth: 1, Src: C(1, 1)}},
		},
	}
	if err := ctx.Exec(ops); err != nil {
		t.Fatal(err)
	}
	if phv.Get("x").V != 42 {
		t.Fatalf("x = %d", phv.Get("x").V)
	}
	if !phv.Get("tenants.$hit").Bool() {
		t.Fatal("hit flag not set")
	}
	if st.Registers["count"].Read(0) != 1 {
		t.Fatal("register increment lost")
	}
	if len(ctx.Reports) != 1 || ctx.Reports[0].Args[0].V != 42 {
		t.Fatalf("reports: %+v", ctx.Reports)
	}
	if phv.Get(FieldReject).Bool() {
		t.Fatal("else branch must not run")
	}
	if ctx.TableApplies != 1 {
		t.Fatalf("TableApplies = %d", ctx.TableApplies)
	}
}

func TestPushOpEviction(t *testing.T) {
	ctx := &ExecContext{PHV: PHV{}, State: &State{}}
	push := func(v uint64) {
		if err := ctx.Exec([]Op{PushOp{Base: "a", ElemWidth: 8, Cap: 2, Src: C(8, v)}}); err != nil {
			t.Fatal(err)
		}
	}
	push(1)
	push(2)
	push(3)
	if got := ctx.PHV.Get(ArrayCount("a")).V; got != 2 {
		t.Fatalf("count = %d", got)
	}
	if ctx.PHV.Get(ArraySlot("a", 0)).V != 2 || ctx.PHV.Get(ArraySlot("a", 1)).V != 3 {
		t.Fatalf("slots: %v %v", ctx.PHV.Get(ArraySlot("a", 0)), ctx.PHV.Get(ArraySlot("a", 1)))
	}
}

func TestSetSlotOp(t *testing.T) {
	ctx := &ExecContext{PHV: PHV{}, State: &State{}}
	ops := []Op{
		SetSlotOp{Base: "a", ElemWidth: 8, Cap: 4, Index: C(8, 2), Src: C(8, 9)},
		SetSlotOp{Base: "a", ElemWidth: 8, Cap: 4, Index: C(8, 9), Src: C(8, 1)}, // dropped
	}
	if err := ctx.Exec(ops); err != nil {
		t.Fatal(err)
	}
	if ctx.PHV.Get(ArraySlot("a", 2)).V != 9 {
		t.Fatal("slot write lost")
	}
	if ctx.PHV.Get(ArrayCount("a")).V != 3 {
		t.Fatalf("count = %d, want 3", ctx.PHV.Get(ArrayCount("a")).V)
	}
}

func TestExecErrors(t *testing.T) {
	ctx := &ExecContext{PHV: PHV{}, State: &State{Tables: map[string]*Table{}, Registers: map[string]*Register{}}}
	if err := ctx.Exec([]Op{ApplyOp{Table: "missing"}}); err == nil {
		t.Fatal("apply of undeclared table must error")
	}
	if err := ctx.Exec([]Op{RegReadOp{Reg: "missing", Index: C(8, 0), Dst: "x"}}); err == nil {
		t.Fatal("read of undeclared register must error")
	}
	if err := ctx.Exec([]Op{RegWriteOp{Reg: "missing", Index: C(8, 0), Src: C(8, 0)}}); err == nil {
		t.Fatal("write to undeclared register must error")
	}
}

// Property: table lookup with random exact entries behaves like a map.
func TestExactTableMapEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := NewTable("t", []KeySpec{{Width: 16, Kind: MatchExact}}, []FieldRef{"v"}, []Value{B(16, 0)})
		model := map[uint64]uint64{}
		for i := 0; i < 50; i++ {
			k, v := uint64(rng.Intn(32)), uint64(rng.Intn(1000))
			if rng.Intn(4) == 0 {
				tbl.Delete([]KeyMatch{ExactKey(k)})
				delete(model, k)
				continue
			}
			if err := tbl.Insert(Entry{Keys: []KeyMatch{ExactKey(k)}, Action: []Value{B(16, v)}}); err != nil {
				return false
			}
			model[k] = Mask(16, v)
		}
		for k := uint64(0); k < 32; k++ {
			v, hit := tbl.Lookup([]uint64{k})
			mv, ok := model[k]
			if hit != ok {
				return false
			}
			if hit && v[0].V != mv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
