// Package compiler translates type-checked Indus programs into pipeline
// IR (§4 of the Hydra paper). The translation strategies mirror §4.1:
//
//   - tele variables become fields of a generated telemetry header that
//     rides on the packet (arrays become header stacks with a valid
//     count);
//   - sensor variables become registers;
//   - control variables become match-action tables — dictionaries get a
//     table applied immediately before each lookup site, non-dictionary
//     control variables get a parameterless table applied at the start
//     of each block that reads them;
//   - for loops are fully unrolled over the static array capacity, each
//     iteration guarded by a validity test on the array's count;
//   - the `in` operator expands to a disjunction over valid slots (tele
//     arrays) or a table apply whose hit flag is the result (control
//     sets);
//   - reject becomes an assignment to the hydra_metadata.reject0 flag
//     (Figure 6), report becomes a digest op.
//
// The same IR is executed by internal/pipeline and pretty-printed as
// P4-16 by internal/p4, so the code that runs in the simulator is the
// code the P4 backend emits.
package compiler

import (
	"fmt"

	"repro/internal/indus/ast"
	"repro/internal/indus/token"
	"repro/internal/indus/types"
	"repro/internal/pipeline"
)

// Options tune the compilation.
type Options struct {
	// Name labels the generated program (defaults to "indus").
	Name string
	// AlignedTele selects the byte-aligned telemetry encoding (see
	// pipeline.Program.AlignedTele); default is packed.
	AlignedTele bool
}

// symbol records how one Indus variable is realized.
type symbol struct {
	decl *ast.Decl
	// base is the PHV field (scalars) or array base name.
	base string
	// table is the realizing table name for control variables.
	table string
	// register is the realizing register name for sensor variables.
	register string
}

type compilerState struct {
	info *types.Info
	prog *pipeline.Program
	syms map[string]*symbol

	// loopVars maps in-scope loop variable names to the PHV temp that
	// holds the current element during an unrolled iteration.
	loopVars map[string]pipeline.Field

	// block being compiled, for hop_count semantics.
	block types.BlockKind

	tmpCount  int
	siteCount map[string]int
}

// Compile translates a checked Indus program to pipeline IR.
func Compile(info *types.Info, opts Options) (*pipeline.Program, error) {
	name := opts.Name
	if name == "" {
		name = "indus"
	}
	c := &compilerState{
		info: info,
		prog: &pipeline.Program{
			Name:           name,
			AlignedTele:    opts.AlignedTele,
			HeaderBindings: map[string]string{},
		},
		syms:      map[string]*symbol{},
		loopVars:  map[string]pipeline.Field{},
		siteCount: map[string]int{},
	}
	if err := c.declareAll(); err != nil {
		return nil, err
	}

	var err error
	c.block = types.BlockInit
	c.prog.Init, err = c.compileInitBlock()
	if err != nil {
		return nil, err
	}
	c.block = types.BlockTelemetry
	c.prog.Telemetry, err = c.compileTelemetryBlock()
	if err != nil {
		return nil, err
	}
	c.block = types.BlockChecker
	c.prog.Checker, err = c.compileBlock(info.Prog.Checker)
	if err != nil {
		return nil, err
	}
	return c.prog, nil
}

// MustCompile compiles a checked program, panicking on error; used for
// the embedded corpus, which is covered by tests.
func MustCompile(info *types.Info, opts Options) *pipeline.Program {
	p, err := Compile(info, opts)
	if err != nil {
		panic(err)
	}
	return p
}

func widthOf(t ast.Type) int {
	switch t := t.(type) {
	case ast.BitType:
		return t.Width
	case ast.BoolType:
		return 1
	}
	panic(fmt.Sprintf("compiler: no scalar width for %s", t))
}

// scalarCols flattens a match-key type into scalar widths.
func scalarCols(t ast.Type) []int {
	if tt, ok := t.(ast.TupleType); ok {
		var ws []int
		for _, e := range tt.Elems {
			ws = append(ws, widthOf(e))
		}
		return ws
	}
	return []int{widthOf(t)}
}

func (c *compilerState) declareAll() error {
	for i := range c.info.Prog.Decls {
		d := &c.info.Prog.Decls[i]
		sym := &symbol{decl: d}
		switch d.Kind {
		case ast.KindTele:
			sym.base = "hydra_header." + d.Name
			switch t := d.Type.(type) {
			case ast.ArrayType:
				c.prog.Tele = append(c.prog.Tele, pipeline.TeleField{
					Name: sym.base, Width: widthOf(t.Elem), IsArray: true, Cap: t.Len,
				})
			default:
				c.prog.Tele = append(c.prog.Tele, pipeline.TeleField{
					Name: sym.base, Width: widthOf(t),
				})
			}

		case ast.KindSensor:
			sym.register = d.Name
			switch t := d.Type.(type) {
			case ast.ArrayType:
				c.prog.Registers = append(c.prog.Registers, pipeline.RegisterSpec{
					Name: d.Name, Width: widthOf(t.Elem), Size: t.Len,
				})
			default:
				c.prog.Registers = append(c.prog.Registers, pipeline.RegisterSpec{
					Name: d.Name, Width: widthOf(t), Size: 1,
				})
			}

		case ast.KindHeader:
			binding := d.Annot
			if binding == "" {
				binding = "hdr." + d.Name
			}
			sym.base = binding
			c.prog.HeaderBindings[d.Name] = binding

		case ast.KindControl:
			sym.table = d.Name
			out := pipeline.FieldRef("ctrl." + d.Name)
			switch t := d.Type.(type) {
			case ast.DictType:
				keys, err := keySpecs(d, t.Key)
				if err != nil {
					return err
				}
				c.prog.Tables = append(c.prog.Tables, pipeline.TableSpec{
					Name:         d.Name,
					Keys:         keys,
					Outputs:      []pipeline.FieldRef{out},
					OutputWidths: []int{widthOf(t.Val)},
					Default:      []pipeline.Value{pipeline.B(widthOf(t.Val), 0)},
				})
			case ast.SetType:
				keys, err := keySpecs(d, t.Elem)
				if err != nil {
					return err
				}
				c.prog.Tables = append(c.prog.Tables, pipeline.TableSpec{
					Name: d.Name,
					Keys: keys,
				})
			default:
				// Scalar control variable: a parameterless table whose
				// single action parameter the control plane sets.
				w := widthOf(d.Type)
				c.prog.Tables = append(c.prog.Tables, pipeline.TableSpec{
					Name:         d.Name,
					Outputs:      []pipeline.FieldRef{out},
					OutputWidths: []int{w},
					Default:      []pipeline.Value{pipeline.B(w, 0)},
				})
			}
		}
		c.syms[d.Name] = sym
	}
	return nil
}

// keySpecs is the exact key columns of control d's dict or set key. A key
// whose columns do not pack into a table's four key words is refused at
// the declaration.
func keySpecs(d *ast.Decl, keyType ast.Type) ([]pipeline.KeySpec, error) {
	cols := scalarCols(keyType)
	specs := make([]pipeline.KeySpec, len(cols))
	for i, w := range cols {
		specs[i] = pipeline.KeySpec{
			Name:  fmt.Sprintf("%s_key%d", d.Name, i),
			Width: w,
			Kind:  pipeline.MatchExact,
		}
	}
	if _, err := pipeline.KeyLayout(specs); err != nil {
		return nil, fmt.Errorf("%s: compiler: control %q: %v", d.Pos, d.Name, err)
	}
	return specs, nil
}

// compileInitBlock compiles tele initializers followed by the init block
// body. Constant initializers are also re-applied here so that init-time
// semantics match the interpreter exactly.
func (c *compilerState) compileInitBlock() ([]pipeline.Op, error) {
	var ops []pipeline.Op
	ops = c.applyScalarControls(ops, c.info.Prog.Init, declInits(c.info.Prog))
	for _, d := range c.info.Prog.DeclsOfKind(ast.KindTele) {
		if d.Init == nil {
			continue
		}
		assignOps, err := c.compileAssignTo(c.syms[d.Name], nil, token.ASSIGN, d.Init)
		if err != nil {
			return nil, err
		}
		ops = append(ops, assignOps...)
	}
	body, err := c.compileStmts(c.info.Prog.Init.Stmts)
	if err != nil {
		return nil, err
	}
	return append(ops, body...), nil
}

// compileTelemetryBlock prepends the hop-count increment, so that
// hop_count reads the 1-based index of the current hop.
func (c *compilerState) compileTelemetryBlock() ([]pipeline.Op, error) {
	ops := []pipeline.Op{
		pipeline.AssignOp{
			Dst:      pipeline.FieldHops,
			DstWidth: 8,
			Src:      pipeline.Bin{Op: pipeline.OpAdd, X: pipeline.Field{Ref: pipeline.FieldHops, Width: 8}, Y: pipeline.C(8, 1)},
		},
	}
	ops = c.applyScalarControls(ops, c.info.Prog.Telemetry, nil)
	body, err := c.compileStmts(c.info.Prog.Telemetry.Stmts)
	if err != nil {
		return nil, err
	}
	return append(ops, body...), nil
}

func (c *compilerState) compileBlock(b *ast.Block) ([]pipeline.Op, error) {
	ops := c.applyScalarControls(nil, b, nil)
	body, err := c.compileStmts(b.Stmts)
	if err != nil {
		return nil, err
	}
	return append(ops, body...), nil
}

// declInits returns the initializer expressions of tele declarations, so
// scalar controls they reference are applied in the init block.
func declInits(p *ast.Program) []ast.Expr {
	var out []ast.Expr
	for _, d := range p.Decls {
		if d.Kind == ast.KindTele && d.Init != nil {
			out = append(out, d.Init)
		}
	}
	return out
}

// applyScalarControls emits, at the start of a block, one apply for each
// scalar control variable the block references (§4.1: "initialized by a
// default action in a single match-action table that executes at the
// start of the pipeline").
func (c *compilerState) applyScalarControls(ops []pipeline.Op, b *ast.Block, extra []ast.Expr) []pipeline.Op {
	used := map[string]bool{}
	var scan func(e ast.Expr)
	scan = func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			if sym, ok := c.syms[e.Name]; ok && sym.decl.Kind == ast.KindControl {
				switch sym.decl.Type.(type) {
				case ast.DictType, ast.SetType:
				default:
					used[e.Name] = true
				}
			}
		case *ast.Unary:
			scan(e.X)
		case *ast.Binary:
			scan(e.X)
			scan(e.Y)
		case *ast.Index:
			scan(e.X)
			scan(e.Idx)
		case *ast.Tuple:
			for _, x := range e.Elems {
				scan(x)
			}
		case *ast.Call:
			for _, x := range e.Args {
				scan(x)
			}
		case *ast.Method:
			scan(e.Recv)
			for _, x := range e.Args {
				scan(x)
			}
		}
	}
	var scanStmt func(s ast.Stmt)
	scanStmt = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.Block:
			for _, t := range s.Stmts {
				scanStmt(t)
			}
		case *ast.Assign:
			scan(s.LHS)
			scan(s.RHS)
		case *ast.If:
			scan(s.Cond)
			scanStmt(s.Then)
			if s.Else != nil {
				scanStmt(s.Else)
			}
		case *ast.For:
			for _, q := range s.Seqs {
				scan(q)
			}
			scanStmt(s.Body)
		case *ast.Report:
			for _, a := range s.Args {
				scan(a)
			}
		case *ast.ExprStmt:
			scan(s.X)
		}
	}
	if b != nil {
		for _, s := range b.Stmts {
			scanStmt(s)
		}
	}
	for _, e := range extra {
		scan(e)
	}
	// Deterministic order: declaration order.
	for _, d := range c.info.Prog.Decls {
		if used[d.Name] {
			ops = append(ops, pipeline.ApplyOp{Table: d.Name})
		}
	}
	return ops
}

func (c *compilerState) newTemp(width int) pipeline.Field {
	c.tmpCount++
	return pipeline.Field{Ref: pipeline.FieldRef(fmt.Sprintf("local.t%d", c.tmpCount)), Width: width}
}
