// Command reach is the reachability census: it lists every function
// declared in the module that no main package links, and every config
// field no program sets, and fails when one of them is not on the
// allowlist.
//
//	go run ./scripts/reach
//
// It builds every main package that `go list ./...` finds with inlining
// off (-gcflags=all=-l, so a function that is called is a symbol of its
// own), reads the linked symbols with `go tool nm`, and compares them
// with the non-test FuncDecls of every package's build-selected files
// and with their function-valued package vars (funcVar): a var that
// holds a function, `var X = pkg.F`, is linked only if a binary reads
// it, and is reported like a function when none does.
// A function of a main package counts only in that binary. Each line of
// scripts/reach/allow.txt names one function the census may report,
// followed by the reason it stays; a line whose function is reachable
// again, or gone, is reported too, so the list cannot go stale.
//
// It then takes the field census (fields.go): every exported field of
// an exported *Config or *Options struct under internal/ that no
// non-test file sets is a knob with one value in use, and fails unless
// allow.txt lists it on a "field <key> <reason>" line; a field line
// whose field is set again, or gone, fails too.
//
// Run it from the module root. It exits 0 when every unreachable
// function and unset field is allowlisted and every allowlist line is
// live, 1 when not, and 2 when a census itself fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowFile is the allowlist's path relative to the module root.
const allowFile = "scripts/reach/allow.txt"

func main() {
	dead, err := census(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	all, unset, structs, err := fieldCensus(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	allow, allowFields, err := readAllow(allowFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
	funcsOK := report(os.Stdout, dead, allow)
	if !reportFields(os.Stdout, all, unset, structs, allowFields) || !funcsOK {
		os.Exit(1)
	}
}

// pkg is one package as `go list -json` describes it. Export and
// DepOnly are filled in only by -export and -deps.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	Module     *struct{ Path string }
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
}

// fn is one declared function or function-valued package var. Key is
// its module-relative name as the report and the allowlist spell it:
// "internal/lvs.Balancer.Quiesce" for a method (receiver type without
// pointer or type parameters), "internal/model.RackCluster" for a
// function or var, ".Foo" in the module's root package.
type fn struct {
	Key   string
	Pos   string // file:line, relative to the module root
	Lines int
}

// census builds every main package of the module in dir and returns the
// functions none of them links, sorted by key.
func census(dir string) ([]fn, error) {
	pkgs, err := listPackages(dir)
	if err != nil {
		return nil, err
	}
	decls := map[string]fn{}
	var vars []funcVar
	var mains []pkg
	for _, p := range pkgs {
		if err := declare(dir, p, decls, &vars); err != nil {
			return nil, err
		}
		if p.Name == "main" {
			mains = append(mains, p)
		}
	}
	// A var's value may name a function of a package declared later, so
	// vars are resolved once every function is known.
	var held []fn
	for _, v := range vars {
		if _, isFunc := decls[v.target]; v.lit || isFunc {
			held = append(held, v.fn)
		}
	}
	for _, v := range held {
		if prev, dup := decls[v.Key]; dup {
			return nil, fmt.Errorf("%s declared twice (%s and %s)", v.Key, prev.Pos, v.Pos)
		}
		decls[v.Key] = v
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no main package under %s", dir)
	}
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	live := map[string]bool{}
	for i, m := range mains {
		bin := filepath.Join(tmp, fmt.Sprintf("main%d", i))
		if out, err := goCmd(dir, "build", "-gcflags=all=-l", "-o", bin, m.ImportPath); err != nil {
			return nil, fmt.Errorf("build %s: %v\n%s", m.ImportPath, err, out)
		}
		out, err := goCmd(dir, "tool", "nm", bin)
		if err != nil {
			return nil, fmt.Errorf("nm %s: %v\n%s", m.ImportPath, err, out)
		}
		for _, sym := range definedSymbols(out) {
			if strings.HasPrefix(sym, "main.") {
				sym = m.ImportPath + sym[len("main"):]
			}
			if k, ok := symbolKey(sym, m.Module.Path); ok {
				live[k] = true
			}
		}
	}
	var dead []fn
	for k, f := range decls {
		if !live[k] {
			dead = append(dead, f)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].Key < dead[j].Key })
	return dead, nil
}

// listPackages lists the module's packages, with their dependencies
// (DepOnly) when flags hold -deps.
func listPackages(dir string, flags ...string) ([]pkg, error) {
	out, err := goCmd(dir, append(append([]string{"list", "-json"}, flags...), "./...")...)
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, out)
	}
	var pkgs []pkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p pkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Module == nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s is outside a module", p.ImportPath)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// relPath is the import path relative to the module: "" for the root
// package, "internal/wire" below it.
func relPath(importPath, module string) (string, bool) {
	if importPath == module {
		return "", true
	}
	if strings.HasPrefix(importPath, module+"/") {
		return importPath[len(module)+1:], true
	}
	return "", false
}

// funcVar is a package-level var that may hold a function: one of a
// function type or whose value is a function literal (lit), or one whose
// value names target, the key of a function if one is declared under it.
type funcVar struct {
	fn
	lit    bool
	target string
}

// declare adds the FuncDecls of p's build-selected, non-test files to
// decls and their package-level vars that may hold a function to vars.
// GoFiles already honours build constraints: a file behind a tag the
// build does not set (race_on.go under `race`) is not in it.
func declare(dir string, p pkg, decls map[string]fn, vars *[]funcVar) error {
	rel, ok := relPath(p.ImportPath, p.Module.Path)
	if !ok {
		return fmt.Errorf("package %s is not in module %s", p.ImportPath, p.Module.Path)
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return err
	}
	fset := token.NewFileSet()
	for _, name := range append(append([]string(nil), p.GoFiles...), p.CgoFiles...) {
		path := filepath.Join(p.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		at := func(key string, n ast.Node) fn {
			start, end := fset.Position(n.Pos()), fset.Position(n.End())
			pos, err := filepath.Rel(root, start.Filename)
			if err != nil {
				pos = start.Filename
			}
			return fn{Key: key, Pos: fmt.Sprintf("%s:%d", filepath.ToSlash(pos), start.Line), Lines: end.Line - start.Line + 1}
		}
		imports := fileImports(f, p.Module.Path)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "_" || d.Name.Name == "init" {
					continue // an init runs whenever its package is linked
				}
				fd := at(rel+"."+declName(d), d)
				if prev, dup := decls[fd.Key]; dup {
					return fmt.Errorf("%s declared twice (%s and %s)", fd.Key, prev.Pos, fd.Pos)
				}
				decls[fd.Key] = fd
			case *ast.GenDecl:
				if d.Tok != token.VAR {
					continue
				}
				for _, s := range d.Specs {
					vs := s.(*ast.ValueSpec)
					_, typed := vs.Type.(*ast.FuncType)
					for i, name := range vs.Names {
						if name.Name == "_" {
							continue
						}
						v := funcVar{fn: at(rel+"."+name.Name, vs), lit: typed}
						if len(vs.Values) == len(vs.Names) {
							lit, target := funcValue(vs.Values[i], rel, imports)
							v.lit, v.target = v.lit || lit, target
						}
						if v.lit || v.target != "" {
							*vars = append(*vars, v)
						}
					}
				}
			}
		}
	}
	return nil
}

// fileImports maps the names f imports packages of the module under to
// their module-relative paths.
func fileImports(f *ast.File, module string) map[string]string {
	out := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		rel, ok := relPath(path, module)
		if !ok {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		out[name] = rel
	}
	return out
}

// funcValue reads a var's value: lit for a function literal, else the
// key of the function it names if it names one of the module's —
// F, pkg.F, T.M or (*T).M, with or without type arguments.
func funcValue(e ast.Expr, rel string, imports map[string]string) (lit bool, target string) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.FuncLit:
			return true, ""
		case *ast.Ident:
			return false, rel + "." + x.Name
		case *ast.SelectorExpr:
			recv := x.X
			for {
				if p, ok := recv.(*ast.ParenExpr); ok {
					recv = p.X
				} else if s, ok := recv.(*ast.StarExpr); ok {
					recv = s.X
				} else {
					break
				}
			}
			id, ok := recv.(*ast.Ident)
			if !ok {
				return false, ""
			}
			if path, ok := imports[id.Name]; ok {
				return false, path + "." + x.Sel.Name
			}
			return false, rel + "." + id.Name + "." + x.Sel.Name
		default:
			return false, ""
		}
	}
}

// declName is "F" for a function and "T.M" for a method, whatever the
// receiver's pointer and type parameters.
func declName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fmt.Sprintf("%T.%s", t, fd.Name.Name)
		}
	}
}

// definedSymbols returns the names of the symbols a binary defines —
// text (code), data, bss and read-only data — in `go tool nm` output,
// whose lines read "address type name". A package var is a data or bss
// symbol of its own name.
func definedSymbols(nm []byte) []string {
	var syms []string
	sc := bufio.NewScanner(bytes.NewReader(nm))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 || !strings.Contains("TtDdBbRr", f[1]) || len(f[1]) != 1 {
			continue
		}
		// A generic instantiation's name may hold spaces
		// ("F[go.shape.struct { X int }]"): rejoin the rest.
		syms = append(syms, strings.Join(f[2:], " "))
	}
	return syms
}

// symbolKey maps a linked symbol of the module to the key of the
// function it belongs to:
//
//	mod/internal/x.F                    -> internal/x.F
//	mod/internal/x.(*T).M, x.T.M        -> internal/x.T.M
//	mod/internal/x.(*T[go.shape.int]).M -> internal/x.T.M
//	mod/internal/x.F.func1.2, x.F.gowrap1, x.T.M-fm -> the enclosing F or T.M
//
// A closure, go/defer wrapper or method value is linked only from the
// body of its enclosing function, so it marks that function live. The
// method "T.M" and the closure "F.func1" share a shape; a compiler-made
// part (funcN, gowrapN, deferwrapN, a number) never names a method. A
// symbol outside the module maps to nothing.
func symbolKey(sym, module string) (string, bool) {
	sym = stripBrackets(sym)
	sym = strings.TrimSuffix(sym, "-fm")
	if !strings.HasPrefix(sym, module) {
		return "", false
	}
	rest := sym[len(module):]
	var rel string
	if strings.HasPrefix(rest, "/") {
		// The package path ends at the first dot after its last slash.
		slash := strings.LastIndex(rest, "/")
		dot := strings.Index(rest[slash:], ".")
		if dot < 0 {
			return "", false
		}
		rel, rest = rest[1:slash+dot], rest[slash+dot:]
	}
	if !strings.HasPrefix(rest, ".") {
		return "", false
	}
	rest = rest[1:]
	var parts []string
	if strings.HasPrefix(rest, "(*") {
		end := strings.Index(rest, ").")
		if end < 0 {
			return "", false
		}
		parts = append([]string{rest[2:end]}, strings.Split(rest[end+2:], ".")...)
	} else {
		parts = strings.Split(rest, ".")
	}
	if parts[0] == "" {
		return "", false // compiler-generated (..dict, ..stmp)
	}
	name := parts[0]
	if len(parts) > 1 && !generated(parts[1]) {
		name += "." + parts[1]
	}
	return rel + "." + name, true
}

// generated reports whether a symbol part is one the compiler makes up
// for a function's closures, go/defer wrappers and numbered inits.
func generated(part string) bool {
	for _, p := range []string{"func", "gowrap", "deferwrap"} {
		if strings.HasPrefix(part, p) && allDigits(part[len(p):]) {
			return true
		}
	}
	return allDigits(part)
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// stripBrackets removes every bracketed type-argument list, nested or
// not: "x.(*T[go.shape.[]int]).M" -> "x.(*T).M".
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// readAllow reads the allowlist: one "key reason..." per line for a
// function and one "field key reason..." for a field, blank lines and
// #-comments skipped. A line without a reason is an error.
func readAllow(path string) (funcs, fields map[string]string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	funcs, fields = map[string]string{}, map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		allow := funcs
		if rest, ok := strings.CutPrefix(line, "field "); ok {
			allow, line = fields, strings.TrimSpace(rest)
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, key)
		}
		if _, dup := allow[key]; dup {
			return nil, nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return funcs, fields, nil
}

// report prints the census and reports whether it passes: every
// unreachable function allowlisted and every allowlist line naming an
// unreachable function.
func report(w io.Writer, dead []fn, allow map[string]string) bool {
	ok := true
	lines, listed := 0, 0
	seen := map[string]bool{}
	for _, f := range dead {
		lines += f.Lines
		seen[f.Key] = true
		if _, in := allow[f.Key]; in {
			listed++
			continue
		}
		ok = false
		fmt.Fprintf(w, "unreachable: %s (%s, %d lines)\n", f.Key, f.Pos, f.Lines)
	}
	var stale []string
	for k := range allow {
		if !seen[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		ok = false
		fmt.Fprintf(w, "stale allowlist line: %s is reachable or no longer declared\n", k)
	}
	fmt.Fprintf(w, "%d functions (%d lines) linked into no binary, %d of them allowlisted\n", len(dead), lines, listed)
	return ok
}

// goCmd runs the go command in dir and returns its standard output, or
// its standard error with the failure.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return stderr.Bytes(), err
	}
	return stdout.Bytes(), nil
}
