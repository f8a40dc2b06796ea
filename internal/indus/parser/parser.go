// Package parser builds Indus abstract syntax trees from source text.
//
// The parser is a recursive-descent parser with precedence climbing for
// expressions. It follows the grammar of Figure 4 in the Hydra paper with
// the prototype extensions: elsif chains, multi-variable for loops,
// report(value) exceptions, tuple expressions/types, hex and binary
// literals, and the list methods push and length.
package parser

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/indus/ast"
	"repro/internal/indus/lexer"
	"repro/internal/indus/token"
)

// Parser holds the token stream and accumulated diagnostics.
type Parser struct {
	toks []token.Token
	pos  int
	errs []error
}

// bailout is used to abort parsing on an unrecoverable error; it is caught
// in Parse and reported with the accumulated diagnostics.
type bailout struct{}

// Parse parses a complete Indus program. file names the source for
// positions and may be empty.
func Parse(file, src string) (prog *ast.Program, err error) {
	toks, lexErrs := lexer.ScanAll(file, []byte(src))
	p := &Parser{toks: toks}
	p.errs = append(p.errs, lexErrs...)

	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			prog, err = nil, errors.Join(p.errs...)
		}
	}()

	prog = p.parseProgram()
	if len(p.errs) > 0 {
		return nil, errors.Join(p.errs...)
	}
	return prog, nil
}

func (p *Parser) cur() token.Token { return p.toks[p.pos] }

func (p *Parser) next() token.Token {
	t := p.toks[p.pos]
	if t.Kind != token.EOF {
		p.pos++
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
	if len(p.errs) > 20 {
		panic(bailout{})
	}
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	panic(bailout{})
}

// ---------------------------------------------------------------------------
// Program structure

func (p *Parser) parseProgram() *ast.Program {
	prog := &ast.Program{}
	for !p.at(token.LBRACE) && !p.at(token.EOF) {
		prog.Decls = append(prog.Decls, p.parseDecl())
	}
	prog.Init = p.parseBlock()
	prog.Telemetry = p.parseBlock()
	prog.Checker = p.parseBlock()
	if !p.at(token.EOF) {
		p.errorf(p.cur().Pos, "unexpected %s after checker block (an Indus program has exactly three blocks)", p.cur())
	}
	return prog
}

func (p *Parser) parseDecl() ast.Decl {
	start := p.cur().Pos
	var kind ast.VarKind
	switch p.cur().Kind {
	case token.TELE:
		kind = ast.KindTele
	case token.SENSOR:
		kind = ast.KindSensor
	case token.HEADER:
		kind = ast.KindHeader
	case token.CONTROL:
		kind = ast.KindControl
	default:
		p.errorf(start, "expected declaration modifier (tele/sensor/header/control), found %s", p.cur())
		panic(bailout{})
	}
	p.next()

	typ := p.parseType()
	name := p.expect(token.IDENT).Lit

	d := ast.Decl{Kind: kind, Type: typ, Name: name, Pos: start}

	if p.accept(token.AT) {
		d.Annot = p.expect(token.STRING).Lit
	}
	if p.accept(token.ASSIGN) {
		d.Init = p.parseExpr()
	}
	p.expect(token.SEMICOLON)

	if d.Init != nil && !kind.Writable() {
		p.errorf(start, "%s variable %q cannot have an initializer (read-only state supplied by the %s)", kind, name, sourceOf(kind))
	}
	if d.Annot != "" && kind != ast.KindHeader {
		p.errorf(start, "@-annotation is only valid on header variables, found on %s %q", kind, name)
	}
	return d
}

func sourceOf(k ast.VarKind) string {
	if k == ast.KindControl {
		return "control plane"
	}
	return "data plane"
}

// parseType parses a type, including array suffixes: bit<8>[15].
func (p *Parser) parseType() ast.Type {
	t := p.parseBaseType()
	for p.at(token.LBRACKET) {
		p.next()
		n := p.parseIntLit("array length")
		p.expect(token.RBRACKET)
		if n <= 0 {
			p.errorf(p.cur().Pos, "array length must be positive, got %d", n)
			n = 1
		}
		t = ast.ArrayType{Elem: t, Len: int(n)}
	}
	return t
}

func (p *Parser) parseBaseType() ast.Type {
	switch p.cur().Kind {
	case token.BIT:
		p.next()
		p.expect(token.LT)
		w := p.parseIntLit("bit width")
		p.expectGT()
		if w < 1 || w > 64 {
			p.errorf(p.cur().Pos, "bit width must be in 1..64, got %d", w)
			w = 1
		}
		return ast.BitType{Width: int(w)}
	case token.BOOL:
		p.next()
		return ast.BoolType{}
	case token.SET:
		p.next()
		p.expect(token.LT)
		elem := p.parseKeyType()
		p.expectGT()
		return ast.SetType{Elem: elem}
	case token.DICT:
		p.next()
		p.expect(token.LT)
		key := p.parseKeyType()
		p.expect(token.COMMA)
		val := p.parseType()
		p.expectGT()
		return ast.DictType{Key: key, Val: val}
	case token.LPAREN:
		return p.parseKeyType()
	}
	p.errorf(p.cur().Pos, "expected type, found %s", p.cur())
	panic(bailout{})
}

// parseKeyType parses a type usable as a dict key or set element: a base
// type or a parenthesized tuple of base types.
func (p *Parser) parseKeyType() ast.Type {
	if p.accept(token.LPAREN) {
		var elems []ast.Type
		elems = append(elems, p.parseType())
		for p.accept(token.COMMA) {
			elems = append(elems, p.parseType())
		}
		p.expect(token.RPAREN)
		if len(elems) == 1 {
			return elems[0]
		}
		return ast.TupleType{Elems: elems}
	}
	return p.parseType()
}

// expectGT consumes a closing > inside a type, splitting a >> token that
// the lexer produced from adjacent closing angles (e.g. dict<bit<8>,bool>
// ends with 8>> from the lexer's point of view).
func (p *Parser) expectGT() {
	if p.at(token.SHR) {
		// Split >> into two > tokens by rewriting the current token.
		p.toks[p.pos] = token.Token{Kind: token.GT, Pos: p.cur().Pos}
		return
	}
	p.expect(token.GT)
}

func (p *Parser) parseIntLit(what string) uint64 {
	t := p.expect(token.INT)
	v, err := parseUint(t.Lit)
	if err != nil {
		p.errorf(t.Pos, "invalid %s %q: %v", what, t.Lit, err)
		return 0
	}
	return v
}

func parseUint(lit string) (uint64, error) {
	switch {
	case strings.HasPrefix(lit, "0x"), strings.HasPrefix(lit, "0X"):
		return strconv.ParseUint(lit[2:], 16, 64)
	case strings.HasPrefix(lit, "0b"), strings.HasPrefix(lit, "0B"):
		return strconv.ParseUint(lit[2:], 2, 64)
	default:
		return strconv.ParseUint(lit, 10, 64)
	}
}

// ---------------------------------------------------------------------------
// Statements

func (p *Parser) parseBlock() *ast.Block {
	start := p.expect(token.LBRACE).Pos
	b := &ast.Block{Pos: start}
	for !p.at(token.RBRACE) && !p.at(token.EOF) {
		b.Stmts = append(b.Stmts, p.parseStmt())
	}
	p.expect(token.RBRACE)
	return b
}

func (p *Parser) parseStmt() ast.Stmt {
	start := p.cur().Pos
	switch p.cur().Kind {
	case token.PASS:
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.Pass{Pos: start}

	case token.REJECT:
		p.next()
		p.expect(token.SEMICOLON)
		return &ast.Reject{Pos: start}

	case token.REPORT:
		p.next()
		r := &ast.Report{Pos: start}
		if p.accept(token.LPAREN) {
			if !p.at(token.RPAREN) {
				r.Args = append(r.Args, p.parseExpr())
				for p.accept(token.COMMA) {
					r.Args = append(r.Args, p.parseExpr())
				}
			}
			p.expect(token.RPAREN)
		}
		p.expect(token.SEMICOLON)
		return r

	case token.IF:
		return p.parseIf()

	case token.FOR:
		return p.parseFor()

	case token.LBRACE:
		return p.parseBlock()
	}

	// Assignment or expression statement (push).
	lhs := p.parseExpr()
	switch p.cur().Kind {
	case token.ASSIGN, token.PLUSASSIGN, token.MINUSASSIGN:
		op := p.next().Kind
		rhs := p.parseExpr()
		p.expect(token.SEMICOLON)
		switch lhs.(type) {
		case *ast.Ident, *ast.Index:
		default:
			p.errorf(start, "invalid assignment target %s", lhs)
		}
		return &ast.Assign{LHS: lhs, Op: op, RHS: rhs, Pos: start}
	default:
		p.expect(token.SEMICOLON)
		if m, ok := lhs.(*ast.Method); !ok || m.Name != "push" {
			p.errorf(start, "expression statement must be a push call, found %s", lhs)
		}
		return &ast.ExprStmt{X: lhs, Pos: start}
	}
}

func (p *Parser) parseIf() ast.Stmt {
	start := p.expect(token.IF).Pos
	p.expect(token.LPAREN)
	cond := p.parseExpr()
	p.expect(token.RPAREN)
	then := p.parseBlock()
	stmt := &ast.If{Cond: cond, Then: then, Pos: start}

	switch p.cur().Kind {
	case token.ELSIF:
		elsifPos := p.cur().Pos
		// Rewrite elsif into else { if ... } by reusing parseIf.
		p.toks[p.pos] = token.Token{Kind: token.IF, Pos: elsifPos}
		stmt.Else = p.parseIf()
	case token.ELSE:
		p.next()
		stmt.Else = p.parseBlock()
	}
	return stmt
}

func (p *Parser) parseFor() ast.Stmt {
	start := p.expect(token.FOR).Pos
	p.expect(token.LPAREN)
	f := &ast.For{Pos: start}
	f.Vars = append(f.Vars, p.expect(token.IDENT).Lit)
	for p.accept(token.COMMA) {
		f.Vars = append(f.Vars, p.expect(token.IDENT).Lit)
	}
	p.expect(token.IN)
	f.Seqs = append(f.Seqs, p.parseExpr())
	for p.accept(token.COMMA) {
		f.Seqs = append(f.Seqs, p.parseExpr())
	}
	p.expect(token.RPAREN)
	if len(f.Vars) != len(f.Seqs) {
		p.errorf(start, "for loop has %d variables but %d sequences", len(f.Vars), len(f.Seqs))
	}
	f.Body = p.parseBlock()
	return f
}

// ---------------------------------------------------------------------------
// Expressions (precedence climbing)

func (p *Parser) parseExpr() ast.Expr { return p.parseBinary(1) }

func (p *Parser) parseBinary(minPrec int) ast.Expr {
	lhs := p.parseUnary()
	for {
		op := p.cur().Kind
		prec := op.Precedence()
		if prec < minPrec || prec == 0 {
			return lhs
		}
		pos := p.next().Pos
		rhs := p.parseBinary(prec + 1)
		lhs = &ast.Binary{Op: op, X: lhs, Y: rhs, Pos: pos}
	}
}

func (p *Parser) parseUnary() ast.Expr {
	switch p.cur().Kind {
	case token.NOT, token.TILDE, token.MINUS:
		t := p.next()
		x := p.parseUnary()
		return &ast.Unary{Op: t.Kind, X: x, Pos: t.Pos}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() ast.Expr {
	x := p.parsePrimary()
	for {
		switch p.cur().Kind {
		case token.LBRACKET:
			pos := p.next().Pos
			idx := p.parseExpr()
			p.expect(token.RBRACKET)
			x = &ast.Index{X: x, Idx: idx, Pos: pos}
		case token.DOT:
			pos := p.next().Pos
			name := p.expect(token.IDENT).Lit
			var args []ast.Expr
			if p.accept(token.LPAREN) {
				if !p.at(token.RPAREN) {
					args = append(args, p.parseExpr())
					for p.accept(token.COMMA) {
						args = append(args, p.parseExpr())
					}
				}
				p.expect(token.RPAREN)
			}
			switch name {
			case "push", "length":
			default:
				p.errorf(pos, "unknown method %q (supported: push, length)", name)
			}
			x = &ast.Method{Recv: x, Name: name, Args: args, Pos: pos}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() ast.Expr {
	t := p.cur()
	switch t.Kind {
	case token.INT:
		p.next()
		v, err := parseUint(t.Lit)
		if err != nil {
			p.errorf(t.Pos, "invalid integer literal %q: %v", t.Lit, err)
		}
		return &ast.IntLit{Value: v, Pos: t.Pos}

	case token.TRUE, token.FALSE:
		p.next()
		return &ast.BoolLit{Value: t.Kind == token.TRUE, Pos: t.Pos}

	case token.IDENT:
		p.next()
		// Builtin function call: abs(x), max(a,b), min(a,b).
		if p.at(token.LPAREN) {
			switch t.Lit {
			case "abs", "max", "min":
				p.next()
				var args []ast.Expr
				if !p.at(token.RPAREN) {
					args = append(args, p.parseExpr())
					for p.accept(token.COMMA) {
						args = append(args, p.parseExpr())
					}
				}
				p.expect(token.RPAREN)
				return &ast.Call{Name: t.Lit, Args: args, Pos: t.Pos}
			}
		}
		return &ast.Ident{Name: t.Lit, Pos: t.Pos}

	case token.LPAREN:
		p.next()
		first := p.parseExpr()
		if p.at(token.COMMA) {
			tup := &ast.Tuple{Elems: []ast.Expr{first}, Pos: t.Pos}
			for p.accept(token.COMMA) {
				tup.Elems = append(tup.Elems, p.parseExpr())
			}
			p.expect(token.RPAREN)
			return tup
		}
		p.expect(token.RPAREN)
		return first
	}

	p.errorf(t.Pos, "expected expression, found %s", t)
	panic(bailout{})
}
