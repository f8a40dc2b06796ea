package bytecode

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// The hop contract: a pass's verdict is Stage.Run's reject mask, its
// reports are what Stage.Reports hands out. These tests hold the two to
// the pass they come from, on hand-built programs.

var (
	hopsF  = pipeline.Field{Ref: pipeline.FieldHops, Width: 8}
	reject = pipeline.AssignOp{Dst: pipeline.FieldReject, DstWidth: 1, Src: pipeline.C(1, 1)}
)

func compileAll(t *testing.T, progs ...*pipeline.Program) []Member {
	t.Helper()
	members := make([]Member, len(progs))
	for k, p := range progs {
		vp, err := Compile(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		members[k] = Member{Prog: vp}
	}
	return members
}

// link links members into a stage and binds it to a fresh state per
// member.
func link(members []Member) (*Stage, *Binding) {
	st := Link(members...)
	row := make([]*pipeline.State, len(members))
	for k, m := range members {
		row[k] = m.Prog.P.NewState()
	}
	return st, st.Set.Bind(row)
}

// TestPassRejectMask runs a two-hop trace in the Wire shape — hop 1 an
// init pass and a telemetry pass, hop 2 one telemetry-and-checker pass,
// the blob carried as bytes in between — over two members: member 0
// checks at every hop and rejects at hop 1 only, member 1 checks at the
// last hop and always rejects. Each pass's mask must hold only that
// pass's rejects: none, member 0's, member 1's.
func TestPassRejectMask(t *testing.T) {
	members := compileAll(t,
		&pipeline.Program{Name: "first-hop",
			Telemetry: []pipeline.Op{pipeline.AssignOp{Dst: pipeline.FieldHops, DstWidth: 8,
				Src: pipeline.Bin{Op: pipeline.OpAdd, X: hopsF, Y: pipeline.C(8, 1)}}},
			Checker: []pipeline.Op{pipeline.IfOp{Cond: pipeline.Bin{Op: pipeline.OpEq, X: hopsF, Y: pipeline.C(8, 1)},
				Then: []pipeline.Op{reject}}},
		},
		&pipeline.Program{Name: "last-hop", Checker: []pipeline.Op{reject}},
	)
	members[0].CheckEveryHop = true
	st, bd := link(members)
	passes := []struct {
		b           Blocks
		first, last bool
		want        uint64
	}{
		{BlockInit, true, false, 0},
		{BlockTelemetry, true, false, 0b01},
		{BlockTelemetry | BlockChecker, false, true, 0b10},
	}
	var blob []byte
	for i, p := range passes {
		if err := st.Set.DecodeTele(blob, st.Ctx.PHV); err != nil {
			t.Fatal(err)
		}
		if got := st.Run(bd, uint32(i+1), 64, p.first, p.last, p.b); got != p.want {
			t.Errorf("pass %d (blocks %03b): mask %02b, want %02b", i, p.b, got, p.want)
		}
		blob = st.Set.EncodeTele(blob[:0], st.Ctx.PHV)
	}
}

// TestReportRunsByOwner links three members — two that report in their
// telemetry and checker blocks, one between them that never reports — on
// a context whose arena holds a stale report, and requires Stage.Reports
// to hand out each pass's reports and no others: one run per reporting
// member, in member order, each run in the order raised.
func TestReportRunsByOwner(t *testing.T) {
	rep := func(v uint64) pipeline.Op { return pipeline.ReportOp{Args: []pipeline.Expr{pipeline.C(8, v)}} }
	st, bd := link(compileAll(t,
		&pipeline.Program{Name: "a", Telemetry: []pipeline.Op{rep(10)}, Checker: []pipeline.Op{rep(11), rep(12)}},
		&pipeline.Program{Name: "quiet", Telemetry: []pipeline.Op{pipeline.AssignOp{Dst: "x", DstWidth: 8, Src: pipeline.C(8, 1)}}},
		&pipeline.Program{Name: "b", Telemetry: []pipeline.Op{rep(20)}, Checker: []pipeline.Op{rep(21)}},
	))
	runs := func() string {
		var got []string
		st.Reports(func(k int, reps []pipeline.Report) {
			args := make([]uint64, len(reps))
			for i, r := range reps {
				args[i] = r.Args[0].V
			}
			got = append(got, fmt.Sprint(k, args))
		})
		return fmt.Sprint(got)
	}
	for _, p := range []struct {
		b    Blocks
		want string
	}{
		{HopBlocks(true, true), "[0 [10 11 12] 2 [20 21]]"},
		{BlockTelemetry, "[0 [10] 2 [20]]"},
		{BlockInit, "[]"},
	} {
		c := st.Ctx
		c.reports = append(c.reports, pipeline.Report{Args: []pipeline.Value{pipeline.B(8, 99)}})
		c.owners = append(c.owners, 1)
		st.Run(bd, 1, 64, true, true, p.b)
		if got := runs(); got != p.want {
			t.Errorf("blocks %03b: runs %s, want %s", p.b, got, p.want)
		}
	}
}

// TestLinkSetMemberLimit links 64 members, the last of which rejects, and
// requires its bit to be the mask's top one; a 65th member is refused.
func TestLinkSetMemberLimit(t *testing.T) {
	members := compileAll(t, &pipeline.Program{Name: "quiet"}, &pipeline.Program{Name: "rejects", Checker: []pipeline.Op{reject}})
	var set []Member
	for range 63 {
		set = append(set, members[0])
	}
	st, bd := link(append(set, members[1]))
	if got := st.Run(bd, 1, 64, true, true, HopBlocks(true, true)); got != 1<<63 {
		t.Errorf("64 members: mask %#x, want %#x", got, uint64(1)<<63)
	}
	defer func() {
		if recover() == nil {
			t.Error("LinkSet linked 65 members")
		}
	}()
	LinkSet(append(set, members[1], members[1]))
}
