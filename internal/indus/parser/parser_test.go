package parser

import (
	"strings"
	"testing"

	"repro/internal/indus/ast"
	"repro/internal/indus/token"
)

// wrap builds a minimal program around a checker-block body.
func wrap(decls, initB, teleB, checkB string) string {
	return decls + "\n{" + initB + "}\n{" + teleB + "}\n{" + checkB + "}\n"
}

// parseExpr parses src as the condition of a checker's if.
func parseExpr(src string) (ast.Expr, error) {
	prog, err := Parse("test.indus", wrap("", "", "", "if ("+src+") { reject; }"))
	if err != nil {
		return nil, err
	}
	return prog.Checker.Stmts[0].(*ast.If).Cond, nil
}

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	prog, err := Parse("test.indus", src)
	if err != nil {
		t.Fatalf("parse error: %v", err)
	}
	return prog
}

func TestEmptyProgram(t *testing.T) {
	prog := mustParse(t, "{}{}{}")
	if len(prog.Decls) != 0 || len(prog.Init.Stmts) != 0 || len(prog.Telemetry.Stmts) != 0 || len(prog.Checker.Stmts) != 0 {
		t.Fatalf("expected empty program, got %+v", prog)
	}
}

func TestDeclarations(t *testing.T) {
	src := wrap(`
		tele bit<8> tenant;
		tele bool violated = false;
		sensor bit<32> load = 0;
		header bit<8> in_port @ "standard_metadata.ingress_port";
		control dict<bit<8>,bit<8>> tenants;
		control dict<(bit<32>,bit<32>),bool> allowed;
		control set<bit<8>> ports;
		tele bit<32>[15] loads;
	`, "", "", "")
	prog := mustParse(t, src)
	if len(prog.Decls) != 8 {
		t.Fatalf("got %d decls, want 8", len(prog.Decls))
	}

	tests := []struct {
		name string
		kind ast.VarKind
		typ  string
	}{
		{"tenant", ast.KindTele, "bit<8>"},
		{"violated", ast.KindTele, "bool"},
		{"load", ast.KindSensor, "bit<32>"},
		{"in_port", ast.KindHeader, "bit<8>"},
		{"tenants", ast.KindControl, "dict<bit<8>,bit<8>>"},
		{"allowed", ast.KindControl, "dict<(bit<32>,bit<32>),bool>"},
		{"ports", ast.KindControl, "set<bit<8>>"},
		{"loads", ast.KindTele, "bit<32>[15]"},
	}
	for i, tt := range tests {
		d := prog.Decls[i]
		if d.Name != tt.name || d.Kind != tt.kind || d.Type.String() != tt.typ {
			t.Errorf("decl %d: got %s %s %s, want %s %s %s", i, d.Kind, d.Type, d.Name, tt.kind, tt.typ, tt.name)
		}
	}
	if prog.Decls[3].Annot != "standard_metadata.ingress_port" {
		t.Errorf("annotation not captured: %q", prog.Decls[3].Annot)
	}
	if prog.Decls[1].Init == nil || prog.Decls[2].Init == nil {
		t.Errorf("initializers not captured")
	}
}

func TestNestedDictClosingAngles(t *testing.T) {
	// dict<bit<8>,dict<...>> produces a >> token that the parser must split.
	src := wrap("control dict<bit<8>,bit<16>> t;", "", "", "")
	prog := mustParse(t, src)
	want := "dict<bit<8>,bit<16>>"
	if got := prog.Decls[0].Type.String(); got != want {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestStatements(t *testing.T) {
	src := wrap(
		"tele bit<8> x; tele bit<8>[4] xs; header bit<8> p;",
		"x = p; xs.push(x);",
		`if (x == 1) { x = 2; } elsif (x == 2) { x = 3; } else { pass; }
		 for (v in xs) { x = v; }
		 x += 1; x -= 1;`,
		"if (x != 0) { reject; report(x); report; }",
	)
	prog := mustParse(t, src)
	if n := len(prog.Init.Stmts); n != 2 {
		t.Fatalf("init: got %d stmts, want 2", n)
	}
	if _, ok := prog.Init.Stmts[1].(*ast.ExprStmt); !ok {
		t.Errorf("push should parse as ExprStmt, got %T", prog.Init.Stmts[1])
	}

	ifStmt, ok := prog.Telemetry.Stmts[0].(*ast.If)
	if !ok {
		t.Fatalf("want *ast.If, got %T", prog.Telemetry.Stmts[0])
	}
	elsif, ok := ifStmt.Else.(*ast.If)
	if !ok {
		t.Fatalf("elsif should desugar to nested If, got %T", ifStmt.Else)
	}
	if _, ok := elsif.Else.(*ast.Block); !ok {
		t.Fatalf("final else should be a Block, got %T", elsif.Else)
	}

	forStmt, ok := prog.Telemetry.Stmts[1].(*ast.For)
	if !ok || len(forStmt.Vars) != 1 || forStmt.Vars[0] != "v" {
		t.Fatalf("for loop mis-parsed: %+v", prog.Telemetry.Stmts[1])
	}

	checker := prog.Checker.Stmts[0].(*ast.If)
	if len(checker.Then.Stmts) != 3 {
		t.Fatalf("checker then-block: got %d stmts", len(checker.Then.Stmts))
	}
	rep := checker.Then.Stmts[1].(*ast.Report)
	if len(rep.Args) != 1 {
		t.Errorf("report(x): got %d args", len(rep.Args))
	}
	bare := checker.Then.Stmts[2].(*ast.Report)
	if len(bare.Args) != 0 {
		t.Errorf("bare report: got %d args", len(bare.Args))
	}
}

func TestMultiVarFor(t *testing.T) {
	src := wrap(
		"tele bit<32>[15] ls; tele bit<32>[15] rs; control bit<32> thresh;",
		"", "",
		"for (l, r in ls, rs) { if (abs(l - r) > thresh) { report; } }",
	)
	prog := mustParse(t, src)
	f := prog.Checker.Stmts[0].(*ast.For)
	if len(f.Vars) != 2 || len(f.Seqs) != 2 {
		t.Fatalf("got %d vars %d seqs", len(f.Vars), len(f.Seqs))
	}
}

func TestExprPrecedence(t *testing.T) {
	tests := []struct{ src, want string }{
		{"a + b * c", "(a + (b * c))"},
		{"a * b + c", "((a * b) + c)"},
		{"a == b && c == d", "((a == b) && (c == d))"},
		{"a && b || c", "((a && b) || c)"},
		{"!a && b", "(!a && b)"},
		{"a - b - c", "((a - b) - c)"},
		{"a < b == true", "((a < b) == true)"},
		{"a & b | c ^ d", "((a & b) | (c ^ d))"},
		{"a << 2 + 1", "((a << 2) + 1)"},
		{"x in xs && y in ys", "((x in xs) && (y in ys))"},
		{"~a + b", "(~a + b)"},
		{"-a * b", "(-a * b)"},
	}
	for _, tt := range tests {
		e, err := parseExpr(tt.src)
		if err != nil {
			t.Errorf("%q: %v", tt.src, err)
			continue
		}
		if got := e.String(); got != tt.want {
			t.Errorf("%q: got %s, want %s", tt.src, got, tt.want)
		}
	}
}

func TestTupleExprAndIndex(t *testing.T) {
	e, err := parseExpr("allowed[(ipv4_src, ipv4_dst)]")
	if err != nil {
		t.Fatal(err)
	}
	idx, ok := e.(*ast.Index)
	if !ok {
		t.Fatalf("want Index, got %T", e)
	}
	tup, ok := idx.Idx.(*ast.Tuple)
	if !ok || len(tup.Elems) != 2 {
		t.Fatalf("want 2-tuple index, got %v", idx.Idx)
	}
}

func TestParenIsNotTuple(t *testing.T) {
	e, err := parseExpr("(a + b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.Tuple); ok {
		t.Fatal("single parenthesized expression must not be a tuple")
	}
}

func TestMethodCalls(t *testing.T) {
	e, err := parseExpr("xs.length")
	if err != nil {
		t.Fatal(err)
	}
	m, ok := e.(*ast.Method)
	if !ok || m.Name != "length" {
		t.Fatalf("got %v", e)
	}
}

func TestHexAndBinaryLiterals(t *testing.T) {
	for _, tt := range []struct {
		src  string
		want uint64
	}{{"0x2A", 42}, {"0b1010", 10}, {"7", 7}} {
		e, err := parseExpr(tt.src)
		if err != nil {
			t.Fatal(err)
		}
		if lit := e.(*ast.IntLit); lit.Value != tt.want {
			t.Errorf("%q: got %d, want %d", tt.src, lit.Value, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct{ name, src, wantSub string }{
		{"missing block", "{}{}", "expected {"},
		{"four blocks", "{}{}{}{}", "exactly three blocks"},
		{"init on header", wrap("header bit<8> p = 1;", "", "", ""), "cannot have an initializer"},
		{"annot on tele", wrap(`tele bit<8> x @ "y";`, "", "", ""), "only valid on header"},
		{"bad width", wrap("tele bit<65> x;", "", "", ""), "bit width"},
		{"zero array", wrap("tele bit<8>[0] xs;", "", "", ""), "array length"},
		{"bad assign target", wrap("tele bit<8> x;", "1 = x;", "", ""), "assignment target"},
		{"stray expr stmt", wrap("tele bit<8> x;", "x;", "", ""), "push"},
		{"mismatched for", wrap("tele bit<8>[2] a; tele bit<8>[2] b;", "", "for (x in a, b) {}", ""), "1 variables but 2 sequences"},
		{"unknown method", wrap("tele bit<8>[2] a;", "a.pop();", "", ""), "unknown method"},
		{"reject no semi", "{}{}{reject}", "expected ;"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse("", tt.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tt.wantSub)
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tt.wantSub)
			}
		})
	}
}

func TestAssignOps(t *testing.T) {
	src := wrap("tele bit<8> x; tele bit<8>[4] xs;", "x += 1; x -= 2; xs[0] = 3; xs[1] += 4;", "", "")
	prog := mustParse(t, src)
	ops := []token.Kind{token.PLUSASSIGN, token.MINUSASSIGN, token.ASSIGN, token.PLUSASSIGN}
	for i, want := range ops {
		a := prog.Init.Stmts[i].(*ast.Assign)
		if a.Op != want {
			t.Errorf("stmt %d: op %s, want %s", i, a.Op, want)
		}
	}
	if _, ok := prog.Init.Stmts[2].(*ast.Assign).LHS.(*ast.Index); !ok {
		t.Errorf("xs[0] should be an Index lvalue")
	}
}

func TestPositionsSurviveParsing(t *testing.T) {
	prog := mustParse(t, "tele bit<8> x;\n{\nx = 1;\n}{}{}")
	a := prog.Init.Stmts[0].(*ast.Assign)
	if a.Pos.Line != 3 {
		t.Errorf("assign position line = %d, want 3", a.Pos.Line)
	}
}
