package flexlevel_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// program is one binary the repository ships: pkg is built from dir,
// which is the root of the module that holds it.
type program struct{ dir, pkg string }

// programs are every binary of the repository. flexbench is its own
// module (it replaces flexlevel with ../), so it builds from its own
// directory.
var programs = []program{
	{".", "./cmd/flexlevel"},
	{".", "./cmd/benchjson"},
	{".", "./examples/quickstart"},
	{".", "./examples/premise"},
	{".", "./examples/berstudy"},
	{"flexbench", "."},
}

// reachAllow names the declared functions no program links that stay
// anyway, each with its reason and caller. The root package's exported
// functions are exempt as one rule (see declaredFuncs's callers): the
// root package is the module's only importable API, documented by its
// Example tests (DESIGN.md §3).
var reachAllow = map[string]string{
	"flexlevel/internal/exp.WriteLifetimeCSV": "flexbench's TestLifetimeMatchesGolden (its own module) writes the lifetime artifact through it",
	"flexlevel/internal/nunma.OptimalShift": "reference oracle of the shift search: nunma's shift tests, and the calibration property test " +
		"(ROADMAP item 12) in another package",
	"flexlevel/internal/hotdata.(*Identifier).FreqLevel": "reference half of Record-then-FreqLevel, the two-hash path RecordLevel replaced: " +
		"accesseval's refController (pool_test.go) and hotdata's TestRecordLevelMatchesRecordThenFreqLevel",
}

// TestEveryFunctionReached fails if a function declared outside tests,
// main packages and flexbench is linked into no program: code only tests
// reach belongs in a _test.go file or nowhere.
func TestEveryFunctionReached(t *testing.T) {
	missing, stale, err := unreached(".", "flexlevel", programs, reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		t.Errorf("%s is allowlisted but a program links it; drop it from reachAllow", name)
	}
	if len(missing) > 0 {
		t.Errorf("%d functions are linked into no program (delete them, move them into a _test.go file, or allowlist them with a reason):\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

// unreached builds progs under root and returns, sorted, the linker names
// of the functions declared in module's non-test, non-main files that no
// program links and allow does not name, plus the allow entries that a
// program does link.
func unreached(root, module string, progs []program, allow map[string]string) (missing, stale []string, err error) {
	linked := map[string]bool{}
	for _, p := range progs {
		if err := linkedSymbols(filepath.Join(root, p.dir), p.pkg, linked); err != nil {
			return nil, nil, err
		}
	}
	decls, err := declaredFuncs(root, module)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range decls {
		reached := false
		for _, n := range d.names {
			reached = reached || linked[n]
		}
		_, allowed := allow[d.names[0]]
		switch {
		case allowed && reached:
			stale = append(stale, d.names[0])
		case allowed || reached, d.facade:
		default:
			missing = append(missing, d.names[0])
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale, nil
}

// linkedSymbols builds pkg in dir with inlining off, so every call keeps
// its callee, and adds each symbol of the linker's reachability graph
// (-dumpdep prints one "from -> to" edge per line) to linked, type
// arguments stripped.
func linkedSymbols(dir, pkg string, linked map[string]bool) error {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, pkg)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build %s in %s: %v\n%s", pkg, dir, err, out.Bytes())
	}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		linked[stripTypeArgs(from)] = true
		linked[stripTypeArgs(to)] = true
	}
	return sc.Err()
}

// stripTypeArgs drops every balanced [...] from a linker symbol, so
// "p.(*T[go.shape.struct { A int }]).M" becomes "p.(*T).M". The
// brackets may hold spaces and nested brackets.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// funcDecl is one declared function: the linker names any of which
// counts as reaching it (the first is the one reported), and whether it
// is an exported function of the module's root package.
type funcDecl struct {
	names  []string
	facade bool
}

// declaredFuncs parses every non-test .go file under root that is not in
// a main package, a testdata directory or a nested module, and returns
// its functions. init is exempt: the runtime calls it.
func declaredFuncs(root, module string) ([]funcDecl, error) {
	var decls []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := path.Join(module, filepath.ToSlash(rel))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			decls = append(decls, funcDecl{
				names:  linkerNames(pkg, fd),
				facade: pkg == module && fd.Recv == nil && fd.Name.IsExported(),
			})
		}
		return nil
	})
	return decls, err
}

// linkerNames maps a declaration in package pkg to the names the linker
// gives it, type arguments stripped: pkg.F, pkg.(*T).M for a pointer
// receiver, and pkg.T.M or its pointer wrapper pkg.(*T).M for a value
// receiver.
func linkerNames(pkg string, fd *ast.FuncDecl) []string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return []string{pkg + "." + fd.Name.Name}
	}
	typ := fd.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	pointer := pkg + ".(*" + recv + ")." + fd.Name.Name
	if ptr {
		return []string{pointer}
	}
	return []string{pkg + "." + recv + "." + fd.Name.Name, pointer}
}

// TestLinkerNames: each declaration form maps to names one of which is
// the symbol -dumpdep prints for it, once stripTypeArgs has dropped the
// type arguments (shape structs hold spaces and nested brackets).
func TestLinkerNames(t *testing.T) {
	const src = `package csvtab
func (t *Tracker) ShiftMv(block int) int { return 0 }
func (g Gaussian) Tail(x float64) float64 { return 0 }
func (t Table[R]) Read(r io.Reader, check func(*R) error) ([]R, error) { return nil, nil }
func (m *Map[K, V]) Put(k K, v V) {}
func Int[R any, I int | int64](name string, field func(*R) *I) Column[R] { return Column[R]{} }
func Lookup(name string) bool { return false }
`
	const pkg = "flexlevel/internal/csvtab"
	cases := []struct {
		want   []string
		linked string // a symbol as -dumpdep prints it
	}{
		{[]string{pkg + ".(*Tracker).ShiftMv"}, pkg + ".(*Tracker).ShiftMv"},
		{[]string{pkg + ".Gaussian.Tail", pkg + ".(*Gaussian).Tail"}, pkg + ".Gaussian.Tail"},
		{[]string{pkg + ".Table.Read", pkg + ".(*Table).Read"},
			pkg + ".Table[go.shape.struct { Arrival time.Duration; Op flexlevel/internal/trace.Op; LPN uint64; Pages int; Tenant int }].Read"},
		{[]string{pkg + ".(*Map).Put"}, pkg + ".(*Map[go.shape.[]int,go.shape.struct { A [4]uint64 }]).Put"},
		{[]string{pkg + ".Int"}, pkg + ".Int[go.shape.struct { Scale float64; System flexlevel/internal/core.System },go.shape.int64]"},
		{[]string{pkg + ".Lookup"}, pkg + ".Lookup"},
	}
	f, err := parser.ParseFile(token.NewFileSet(), "src.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Decls) != len(cases) {
		t.Fatalf("%d declarations for %d cases", len(f.Decls), len(cases))
	}
	for i, c := range cases {
		fd := f.Decls[i].(*ast.FuncDecl)
		got := linkerNames(pkg, fd)
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%s: linker names %q, want %q", fd.Name.Name, got, c.want)
		}
		if s := stripTypeArgs(c.linked); s != got[0] && (len(got) < 2 || s != got[1]) {
			t.Errorf("%s: %q strips to %q, none of %q", fd.Name.Name, c.linked, s, got)
		}
	}
}

// TestGateReportsUnreached runs the gate on a throwaway module: an
// exported function no program calls is reported, as is an unexported
// one of the root package; the root package's exported functions,
// testdata and a nested module are not looked at; an allowlist entry a
// program links is reported stale.
func TestGateReportsUnreached(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                     "module fixture\n\ngo 1.22\n",
		"fixture.go":                 "package fixture\n\nfunc Facade() {}\n\nfunc helper() {}\n",
		"internal/lib/lib.go":        "package lib\n\nfunc Used() int { return 1 }\n\nfunc Unused() int { return 2 }\n",
		"internal/lib/lib_test.go":   "package lib\n\nfunc testOnly() {}\n",
		"internal/lib/testdata/x.go": "package x\n\nfunc Data() {}\n",
		"cmd/app/main.go":            "package main\n\nimport \"fixture/internal/lib\"\n\nfunc main() { println(lib.Used()) }\n",
		"bench/go.mod":               "module bench\n\ngo 1.22\n",
		"bench/bench.go":             "package bench\n\nfunc Nested() {}\n",
	}
	writeTree(t, root, files)
	progs := []program{{".", "./cmd/app"}}
	allow := map[string]string{"fixture/internal/lib.Used": "stale on purpose"}
	missing, stale, err := unreached(root, "fixture", progs, allow)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fixture.helper", "fixture/internal/lib.Unused"}; strings.Join(missing, " ") != strings.Join(want, " ") {
		t.Errorf("unreached = %q, want %q", missing, want)
	}
	if want := []string{"fixture/internal/lib.Used"}; strings.Join(stale, " ") != strings.Join(want, " ") {
		t.Errorf("stale allowlist = %q, want %q", stale, want)
	}
}

// fieldAllow names the declared struct fields no program reads that stay
// anyway, each with its reason. Exempt as one rule: blank fields, and the
// fields of the root package's exported types (the module's API).
var fieldAllow = map[string]string{
	"flexlevel/internal/ldpc.Result.Bits": "decoded-codeword oracle of TestScheduleMatchesReference: the flooding and layered " +
		"schedules must agree bit for bit, not only on OK",
}

// TestEveryFieldRead fails if a struct field declared outside tests, main
// packages and flexbench is read by no program: state only tests read
// belongs in a _test.go file or nowhere.
func TestEveryFieldRead(t *testing.T) {
	missing, stale, err := unreadFields(".", "flexlevel", []string{".", "flexbench"}, fieldAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		t.Errorf("%s is allowlisted but a program reads it or it is not declared; drop it from fieldAllow", name)
	}
	if len(missing) > 0 {
		t.Errorf("%d fields are read by no program (delete them with their writes, or allowlist them with a reason):\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

// unreadFields type-checks the non-test packages of the modules in dirs
// (relative to root) and returns, sorted, the fields declared in module's
// non-main packages that no program code reads and allow does not name,
// plus the allow entries that name no such field.
func unreadFields(root, module string, dirs []string, allow map[string]string) (missing, stale []string, err error) {
	srcs, err := loadSources(root, dirs)
	if err != nil {
		return nil, nil, err
	}
	read := readFields(srcs)
	unread := map[string]bool{}
	for _, s := range srcs {
		if s.module != module || s.pkg.Name() == "main" {
			continue
		}
		for _, d := range declaredFields(s, s.pkg.Path() == module) {
			if !read[d.v] {
				unread[d.name] = true
			}
		}
	}
	for name := range unread {
		if _, ok := allow[name]; !ok {
			missing = append(missing, name)
		}
	}
	for name := range allow {
		if !unread[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	return missing, stale, nil
}

// source is one type-checked package of program code.
type source struct {
	fset   *token.FileSet
	module string
	pkg    *types.Package
	files  []*ast.File
	info   *types.Info
}

// listedPackage is the part of a `go list -json` record the field gate
// reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
	Module                  *struct{ Path string }
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// loadSources type-checks, from source and in dependency order, every
// non-standard package the modules in dirs build, sharing one package map
// so a field has one *types.Var in every module. Standard packages come
// from their export data.
func loadSources(root string, dirs []string) ([]*source, error) {
	fset := token.NewFileSet()
	exports := map[string]string{}
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	var srcs []*source
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,Standard,Module", "./...")
		cmd.Dir = filepath.Join(root, dir)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v\n%s", cmd.Dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var lp listedPackage
			if err := dec.Decode(&lp); errors.Is(err, io.EOF) {
				break
			} else if err != nil {
				return nil, err
			}
			if lp.Standard {
				exports[lp.ImportPath] = lp.Export
				continue
			}
			if checked[lp.ImportPath] != nil {
				continue
			}
			s := &source{fset: fset, info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}}
			if lp.Module != nil {
				s.module = lp.Module.Path
			}
			for _, name := range lp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				s.files = append(s.files, f)
			}
			if s.pkg, err = conf.Check(lp.ImportPath, fset, s.files, s.info); err != nil {
				return nil, err
			}
			checked[lp.ImportPath] = s.pkg
			srcs = append(srcs, s)
		}
	}
	return srcs, nil
}

// readFields returns every field program code reads. A selector is not a
// read when it is the whole left side of an assignment, the operand of
// ++/--, or the base of an indexed assignment; nor when it selects the
// field it is assigned to, as in s.F op= o.F or x.F = f(x.F), where the
// value flows only into itself. A composite-literal key is no selector.
// An embedded field on the path of a promoted field or method is read.
// So is every exported field of a struct that encoding/json or fmt can
// reach by reflection: from a struct with a json tag, or from an argument
// of a call into either package.
func readFields(srcs []*source) map[*types.Var]bool {
	read := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var reflected func(t types.Type)
	reflected = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			reflected(u.Elem())
		case *types.Slice:
			reflected(u.Elem())
		case *types.Array:
			reflected(u.Elem())
		case *types.Map:
			reflected(u.Key())
			reflected(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() || f.Embedded() {
					read[f.Origin()] = true
					reflected(f.Type())
				}
			}
		}
	}
	for _, s := range srcs {
		info := s.info
		for _, f := range s.files {
			notRead := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, l := range n.Lhs {
						if sel := writeTarget(l); sel != nil {
							notRead[sel] = true
						}
					}
					if n.Tok != token.DEFINE {
						for i, l := range n.Lhs {
							l, ok := ast.Unparen(l).(*ast.SelectorExpr)
							if !ok {
								continue
							}
							rhs := n.Rhs
							if len(rhs) == len(n.Lhs) {
								rhs = rhs[i : i+1]
							}
							for _, r := range rhs {
								ast.Inspect(r, func(m ast.Node) bool {
									if r, ok := m.(*ast.SelectorExpr); ok && info.Uses[r.Sel] == info.Uses[l.Sel] {
										notRead[r] = true
									}
									return true
								})
							}
						}
					}
				case *ast.IncDecStmt:
					if sel := writeTarget(n.X); sel != nil {
						notRead[sel] = true
					}
				case *ast.CallExpr:
					if reflects(info, n) {
						for _, a := range n.Args {
							reflected(info.TypeOf(a))
						}
					}
				case *ast.StructType:
					if st, ok := info.TypeOf(n).(*types.Struct); ok && jsonTagged(st) {
						reflected(st)
					}
				case *ast.SelectorExpr:
					// Inspect visits a statement before its operands, so
					// notRead already holds this selector if it is a write.
					sel := info.Selections[n]
					if sel == nil {
						return true
					}
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if p, ok := t.Underlying().(*types.Pointer); ok {
							t = p.Elem()
						}
						st, ok := t.Underlying().(*types.Struct)
						if !ok {
							break
						}
						read[st.Field(i).Origin()] = true
						t = st.Field(i).Type()
					}
					if v, ok := sel.Obj().(*types.Var); ok && !notRead[n] {
						read[v.Origin()] = true
					}
				}
				return true
			})
		}
	}
	return read
}

// writeTarget returns the selector an assignment to e stores into
// without reading it: e itself, or the base of x.F[i].
func writeTarget(e ast.Expr) *ast.SelectorExpr {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, _ := e.(*ast.SelectorExpr)
	return sel
}

// reflects reports whether call calls a function or method of fmt or
// encoding/json, which read their arguments' fields by reflection.
func reflects(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && (fn.Pkg().Path() == "fmt" || fn.Pkg().Path() == "encoding/json")
}

// jsonTagged reports whether any field of st has a json tag.
func jsonTagged(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

// declaredField is one field of a struct type declared in a source: its
// report name, pkg.Type.Field (nested struct types add their field's
// name; a struct outside a type declaration is pkg.struct@file:line), and
// its object.
type declaredField struct {
	name string
	v    *types.Var
}

// declaredFields lists the fields of every struct type written in s
// except blank ones and, when facade is set, those of exported types.
func declaredFields(s *source, facade bool) []declaredField {
	var out []declaredField
	var walk func(prefix string, e ast.Expr)
	walk = func(prefix string, e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			t := s.info.TypeOf(st).(*types.Struct)
			i := 0 // t's fields in AST order, one per name or embedding
			for _, fl := range st.Fields.List {
				for range max(1, len(fl.Names)) {
					v := t.Field(i)
					i++
					if v.Name() != "_" {
						out = append(out, declaredField{prefix + "." + v.Name(), v})
						walk(prefix+"."+v.Name(), fl.Type)
					}
				}
			}
			return false
		})
	}
	for _, f := range s.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if !(facade && n.Name.IsExported()) {
					walk(s.pkg.Path()+"."+n.Name.Name, n.Type)
				}
				return false
			case *ast.StructType:
				pos := s.fset.Position(n.Pos())
				walk(fmt.Sprintf("%s.struct@%s:%d", s.pkg.Path(), filepath.Base(pos.Filename), pos.Line), n)
				return false
			}
			return true
		})
	}
	return out
}

// writeTree writes files, keyed by slash-separated path, under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFieldGateReportsUnread runs the field gate on a throwaway module.
// Reported: a write-only field, one set only in a composite literal, one
// read only by its own s.F += o.F, one read only by its own
// x.F = max(x.F, …), and one read only in a _test.go file.
// Not reported: a field read through &d.F, fields reached through a
// json-tagged struct or a fmt argument, an embedded sync.Mutex whose
// Lock is called, and the root package's exported types. An allowlist
// entry a program reads is reported stale.
func TestFieldGateReportsUnread(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod":     "module fixture\n\ngo 1.22\n",
		"fixture.go": "package fixture\n\ntype Facade struct{ Knob int }\n",
		"internal/lib/lib.go": `package lib

import (
	"fmt"
	"sync"
)

type Stats struct{ Hits, Misses int }

func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
}

type Snapshot struct {
	Dev View ` + "`json:\"dev\"`" + `
}

type View struct{ Reads int }

type Row struct{ Label string }

type Dev struct {
	sync.Mutex
	written, literal, tested, addr, peak int
	stats                                Stats
}

func New() *Dev { return &Dev{literal: 1} }

func (d *Dev) Run() int {
	d.Lock()
	defer d.Unlock()
	d.written++
	d.stats.Add(Stats{Hits: 1, Misses: 1})
	p := &d.addr
	d.peak = max(d.peak, *p)
	fmt.Println(Row{})
	return *p + d.stats.Hits
}
`,
		"internal/lib/lib_test.go": "package lib\n\nimport \"testing\"\n\nfunc TestTested(t *testing.T) { _ = New().tested }\n",
		"cmd/app/main.go":          "package main\n\nimport \"fixture/internal/lib\"\n\nfunc main() { println(lib.New().Run()) }\n",
	})
	allow := map[string]string{"fixture/internal/lib.Dev.addr": "stale on purpose"}
	missing, stale, err := unreadFields(root, "fixture", []string{"."}, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fixture/internal/lib.Dev.literal",
		"fixture/internal/lib.Dev.peak",
		"fixture/internal/lib.Dev.tested",
		"fixture/internal/lib.Dev.written",
		"fixture/internal/lib.Stats.Misses",
	}
	if strings.Join(missing, " ") != strings.Join(want, " ") {
		t.Errorf("unread = %q, want %q", missing, want)
	}
	if want := []string{"fixture/internal/lib.Dev.addr"}; strings.Join(stale, " ") != strings.Join(want, " ") {
		t.Errorf("stale allowlist = %q, want %q", stale, want)
	}
}
