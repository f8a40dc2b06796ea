package repro_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadExportAllow names the exported identifiers under internal/ that may
// have no non-test caller, one `pkg.Name` (a method as `pkg.Type.Name`,
// pkg the path below internal/) and its reason a line.
const deadExportAllow = "testdata/deadexport_allow.txt"

// TestNoDeadExports fails on an exported package-level func, type, var or
// const, or an exported method, declared in a non-test file under
// internal/ that no non-test file of the module names outside its own
// declaration. A type named only by its own methods' receivers is not
// named. A method also counts as named when it implements a method of an
// interface that non-test code calls. The referrers are every non-test
// package: internal/, cmd/, examples/ and the separate bench/ module,
// which imports this one from source. Each package is type-checked from
// source twice, in the default build and under -tags hydralive, and a
// name used in either build is used. Struct fields are out of scope.
//
// An identifier that exists for tests by design, or that a test in
// another package cannot do without, goes on the allowlist with its
// reason. An allowlist entry that is now named, or that no longer exists,
// fails too, so the list cannot rot.
func TestNoDeadExports(t *testing.T) {
	std := importer.Default()
	declared := map[string]token.Position{}
	used := map[string]bool{}
	for _, tags := range [][]string{nil, {"hydralive"}} {
		s := newExportScan(t, std, tags)
		s.collect(declared, used)
	}

	allow := readDeadExportAllow(t)
	var dead []string
	for key, pos := range declared {
		if !used[key] && allow[key] == "" {
			dead = append(dead, pos.String()+": "+key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, or allowlist it in %s with a reason", d, deadExportAllow)
	}
	for key := range allow {
		if _, ok := declared[key]; !ok {
			t.Errorf("%s: %s is no longer declared; delete its entry", deadExportAllow, key)
		} else if used[key] {
			t.Errorf("%s: %s has a non-test caller now; delete its entry", deadExportAllow, key)
		}
	}
}

func readDeadExportAllow(t *testing.T) map[string]string {
	f, err := os.Open(deadExportAllow)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		reason = strings.TrimSpace(reason)
		if reason == "" {
			t.Errorf("%s:%d: %s has no reason", deadExportAllow, n, key)
			reason = "-"
		}
		if allow[key] != "" {
			t.Errorf("%s:%d: %s is listed twice", deadExportAllow, n, key)
		}
		allow[key] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// exportScan type-checks the module's non-test packages from source under
// one set of build tags.
type exportScan struct {
	t    *testing.T
	ctx  build.Context
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path -> directory
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newExportScan(t *testing.T, std types.Importer, tags []string) *exportScan {
	s := &exportScan{t: t, ctx: build.Default, fset: token.NewFileSet(), std: std,
		dirs: map[string]string{}, pkgs: map[string]*checkedPkg{}}
	s.ctx.BuildTags = tags
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// bench/ is the module repro/bench; it imports this module
		// through a replace of repro with ../, so both share one tree.
		s.dirs[strings.TrimSuffix("repro/"+filepath.ToSlash(path), "/.")] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if _, ok := s.dirs[path]; !ok {
		return s.std.Import(path)
	}
	p, err := s.check(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

// check parses and type-checks one module package, nil for a directory
// with no non-test Go file in this build.
func (s *exportScan) check(path string) (*checkedPkg, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir := s.dirs[path]
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := s.ctx.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		s.pkgs[path] = nil
		return nil, nil
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &checkedPkg{pkg: pkg, files: files, info: info}
	s.pkgs[path] = p
	return p, nil
}

// subject is one exported declaration under internal/: its allowlist key
// and the span of its declaration, inside which a use does not count.
type subject struct {
	key      string
	pos, end token.Pos
}

// collect adds every subject of this build to declared and every subject
// some non-test file names to used.
func (s *exportScan) collect(declared map[string]token.Position, used map[string]bool) {
	var paths []string
	for path := range s.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var checked []*checkedPkg
	for _, path := range paths {
		p, err := s.check(path)
		if err != nil {
			s.t.Fatalf("%s (tags %v): %v", path, s.ctx.BuildTags, err)
		}
		if p != nil {
			checked = append(checked, p)
		}
	}

	subjects := map[types.Object]subject{}
	receivers := map[*ast.Ident]bool{} // a method's receiver type name
	for _, p := range checked {
		rel, ok := strings.CutPrefix(p.pkg.Path(), "repro/internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					key := rel + "." + d.Name.Name
					if d.Recv != nil {
						recv := receiverName(d.Recv.List[0].Type)
						receivers[recv] = true
						key = rel + "." + recv.Name + "." + d.Name.Name
					}
					if d.Name.IsExported() {
						subjects[p.info.Defs[d.Name]] = subject{key, d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								subjects[p.info.Defs[sp.Name]] = subject{rel + "." + sp.Name.Name, sp.Pos(), sp.End()}
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									subjects[p.info.Defs[n]] = subject{rel + "." + n.Name, sp.Pos(), sp.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	for obj, sub := range subjects {
		declared[sub.key] = s.fset.Position(obj.Pos())
	}

	var ifaceCalls []*types.Func
	for _, p := range checked {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					ifaceCalls = append(ifaceCalls, fn)
				}
			}
			sub, ok := subjects[obj]
			if !ok || (id.Pos() >= sub.pos && id.Pos() < sub.end) {
				continue
			}
			if _, isType := obj.(*types.TypeName); isType && receivers[id] {
				continue
			}
			used[sub.key] = true
		}
	}

	// A method that implements an interface method non-test code calls
	// is reached through that call.
	for obj, sub := range subjects {
		fn, ok := obj.(*types.Func)
		if !ok || used[sub.key] {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		for _, call := range ifaceCalls {
			if call.Name() != fn.Name() {
				continue
			}
			iface := call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface) {
				used[sub.key] = true
				break
			}
		}
	}
}

// receiverName is the type name of a method's receiver: T in T, *T, T[P]
// and *T[P].
func receiverName(x ast.Expr) *ast.Ident {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			return e
		default:
			panic("receiverName: unexpected receiver type")
		}
	}
}
