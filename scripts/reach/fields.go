package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The field census: every exported field of an exported struct type
// under internal/ whose name ends in Config or Options is a knob, and a
// knob that no non-test file of the module sets has one value in use;
// it belongs in a constant. A field counts as set by a keyed composite
// literal of its type (through any alias, with the & or the type
// elided), by an unkeyed one, by an assignment, ++ or -- to it, or by
// taking its address. What the type's own methods do to it does not
// count: that is where defaults are filled in.

// field is one exported field of a census struct. Key is
// "internal/freon.ECConfig.Uh", as the report and the allowlist spell
// it.
type field struct {
	Key string
	Pos string // file:line, relative to the module root
}

// fieldCensus type-checks the non-test files of every package of the
// module in dir, against its dependencies' export data, and returns the
// census fields with the number of structs they belong to, and the
// fields no file sets, each sorted by key.
func fieldCensus(dir string) (all, unset []field, structs int, err error) {
	pkgs, err := listPackages(dir, "-export", "-deps")
	if err != nil {
		return nil, nil, 0, err
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	fields := map[string]field{}
	set := map[string]bool{}
	for _, p := range pkgs {
		if p.DepOnly {
			continue
		}
		files, info, tp, err := check(fset, imp, p)
		if err != nil {
			return nil, nil, 0, err
		}
		module := p.Module.Path
		if rel, _ := relPath(p.ImportPath, module); strings.HasPrefix(rel, "internal/") {
			structs += declareFields(fset, root, rel, tp, fields)
		}
		for _, f := range files {
			markSet(f, info, module, set)
		}
	}
	for k, f := range fields {
		all = append(all, f)
		if !set[k] {
			unset = append(unset, f)
		}
	}
	byKey := func(fs []field) {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key })
	}
	byKey(all)
	byKey(unset)
	return all, unset, structs, nil
}

// check parses p's non-test files and type-checks them.
func check(fset *token.FileSet, imp types.Importer, p pkg) ([]*ast.File, *types.Info, *types.Package, error) {
	var files []*ast.File
	for _, name := range append(append([]string(nil), p.GoFiles...), p.CgoFiles...) {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	return files, info, tp, nil
}

// declareFields adds the exported fields of tp's census structs to
// fields and returns how many structs it found.
func declareFields(fset *token.FileSet, root, rel string, tp *types.Package, fields map[string]field) int {
	n := 0
	scope := tp.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		n++
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if !v.Exported() {
				continue
			}
			pos := fset.Position(v.Pos())
			file, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				file = pos.Filename
			}
			key := rel + "." + name + "." + v.Name()
			fields[key] = field{Key: key, Pos: fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)}
		}
	}
	return n
}

// markSet records in set the key of every field of a module struct that
// f sets, skipping what a method does to its own receiver type's
// fields.
func markSet(f *ast.File, info *types.Info, module string, set map[string]bool) {
	for _, d := range f.Decls {
		own := ""
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
			if t := structOf(info.TypeOf(fd.Recv.List[0].Type), module); t != nil {
				own = t.key
			}
		}
		mark := func(t *owner, name string) {
			if t != nil && t.key != own {
				set[t.key+"."+name] = true
			}
		}
		// markSel marks the field x.F selects. Setting cfg.A.B sets B,
		// not cfg.A.
		markSel := func(e ast.Expr) {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
				mark(fieldOwner(s, module), sel.Sel.Name)
			}
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := structOf(info.TypeOf(n), module)
				if t == nil || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < t.st.NumFields(); i++ {
						mark(t, t.st.Field(i).Name())
					}
					break
				}
				for _, e := range n.Elts {
					if id, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
						mark(t, id.Name)
					}
				}
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, l := range n.Lhs {
						markSel(l)
					}
				}
			case *ast.IncDecStmt:
				markSel(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markSel(n.X)
				}
			}
			return true
		})
	}
}

// owner is a named struct type of the module: key is
// "internal/freon.Config".
type owner struct {
	key string
	st  *types.Struct
}

// structOf returns the named struct type t is, or points to, through
// aliases, if the module declares it.
func structOf(t types.Type, module string) *owner {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Origin().Obj()
	if obj.Pkg() == nil {
		return nil
	}
	rel, ok := relPath(obj.Pkg().Path(), module)
	if !ok {
		return nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	return &owner{key: rel + "." + obj.Name(), st: st}
}

// fieldOwner returns the struct that declares the field s selects,
// following s's path through embedded fields.
func fieldOwner(s *types.Selection, module string) *owner {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		o := structOf(t, module)
		if o == nil {
			// An embedded struct outside the module: its fields are not
			// the census's.
			return nil
		}
		t = o.st.Field(i).Type()
	}
	return structOf(t, module)
}

// reportFields prints the field census and reports whether it passes:
// every unset field allowlisted and every allowlisted field declared
// and unset.
func reportFields(w io.Writer, all, unset []field, structs int, allow map[string]string) bool {
	ok := true
	declared := map[string]bool{}
	for _, f := range all {
		declared[f.Key] = true
	}
	isUnset := map[string]bool{}
	listed := 0
	for _, f := range unset {
		isUnset[f.Key] = true
		if _, in := allow[f.Key]; in {
			listed++
			continue
		}
		ok = false
		fmt.Fprintf(w, "unset field: %s (%s): no non-test file sets it; make it a constant\n", f.Key, f.Pos)
	}
	var stale []string
	for k := range allow {
		if !isUnset[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		ok = false
		if declared[k] {
			fmt.Fprintf(w, "stale allowlist line: field %s is set\n", k)
		} else {
			fmt.Fprintf(w, "stale allowlist line: field %s is no longer declared\n", k)
		}
	}
	fmt.Fprintf(w, "%d exported fields in %d Config/Options structs under internal/, %d set by no non-test file, %d of them allowlisted\n",
		len(all), structs, len(unset), listed)
	return ok
}
