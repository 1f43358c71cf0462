package flexlevel_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
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
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
