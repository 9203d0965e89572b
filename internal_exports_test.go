package coldtall

// Dead-code guard: every function, method, type, const and var declared at
// package level under internal/, exported or not, must be used by some
// non-test Go file of this module or of the perfbench harness (a module of
// its own that imports this one). Nothing outside the two modules can
// import internal/ packages, so a name only tests use is production code
// kept alive for its tests — exhaustive oracles and test fixtures belong in
// _test.go.
//
// The scan is type-aware. It type-checks the non-test files of every
// package with go/types (the standard library comes from the compiler's
// export data, through one `go list -export`) and matches the objects
// declared under internal/ against types.Info.Uses, so x.Len counts only
// for the Len that x's type resolves to. A generic method counts through
// its Origin. A method nothing calls directly still counts as used when a
// pointer to its type implements an interface that has a method of that
// name: the universe error, a named interface of any package the scan
// loads (fmt.Stringer, http.Flusher, trace's Source) or an interface type
// written in the checked sources, instantiated generic ones included
// (cache.Tier[array.Result] for job's charTier). Struct fields are not
// scanned: encoding/json reads response fields no Go code selects.

import (
	"fmt"
	"go/ast"
	"go/build"
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
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the internal declarations that stay whether or
// not production uses them, each with the reason. The guard fails on an
// entry that gains a production caller, so the list cannot go stale.
var exportAllowList = map[string]string{
	"array.Characterize": "building block of the exhaustive-search oracle in array's tests",
	"trace.Collect":      "test utility: 14 test files across 6 packages draw generator accesses through it",
	"trace.WriteText":    "test utility: 9 test files across 5 packages build text-format traces with it",
	"cache.Cache.Stats":  "the bound tests of cache, explorer's characterization memo and trace's Zipf table memo read Len and Misses through it",
}

func TestInternalExportsHaveProductionCallers(t *testing.T) {
	dead, err := unusedInternalNames(".", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range auditUnused(dead, exportAllowList) {
		t.Error(problem)
	}
}

// TestUnusedScanFixture runs the scan over a fixture module that holds
// one of each case the rule must tell apart.
func TestUnusedScanFixture(t *testing.T) {
	root := filepath.Join("testdata", "exportguard")
	dead, err := unusedInternalNames(root, "caller")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for name := range dead {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"widget.Gauge.Reset", "widget.Widget.Unused"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("unused in the fixture: %v, want %v", got, want)
	}
	allow := map[string]string{
		"widget.Widget.Unused": "kept for a test",
		"widget.Counter.Reset": "gained a production caller",
		"widget.Missing":       "never declared",
	}
	problems := strings.Join(auditUnused(dead, allow), "\n")
	for _, name := range []string{"widget.Gauge.Reset", "widget.Counter.Reset", "widget.Missing"} {
		if !strings.Contains(problems, name) {
			t.Errorf("audit of the fixture does not name %s:\n%s", name, problems)
		}
	}
	if strings.Contains(problems, "widget.Widget.Unused") {
		t.Errorf("audit of the fixture names the allow-listed widget.Widget.Unused:\n%s", problems)
	}
}

// auditUnused turns a scan result into the guard's failures: each unused
// name that is not allow-listed, and each allow-list entry that is not an
// unused declaration (it gained a caller, or it is gone).
func auditUnused(dead map[string]token.Position, allow map[string]string) []string {
	var problems []string
	for name, pos := range dead {
		if _, ok := allow[name]; !ok {
			problems = append(problems, fmt.Sprintf("internal declaration with no non-test use: %s (%s); delete it, move it into a _test.go file, or allow-list it with a reason", name, pos))
		}
	}
	for name := range allow {
		if _, ok := dead[name]; !ok {
			problems = append(problems, fmt.Sprintf("allow-listed %s is not an unused internal declaration: drop it from the list", name))
		}
	}
	sort.Strings(problems)
	return problems
}

// unusedInternalNames type-checks the non-test packages of the module at
// root and of the nested modules under callers (paths relative to root,
// whose imports of root's packages resolve to root's sources), and returns the
// package-level declarations under root's internal/ that none of them
// uses, keyed "pkg.Name" or "pkg.Type.Method" with their positions
// relative to root.
func unusedInternalNames(root string, callers ...string) (map[string]token.Position, error) {
	l := &loader{fset: token.NewFileSet(), pkgs: make(map[string]*loadedPkg)}
	for _, dir := range append([]string{"."}, callers...) {
		if err := l.parseModule(filepath.Join(root, dir)); err != nil {
			return nil, err
		}
	}
	if err := l.checkAll(); err != nil {
		return nil, err
	}

	used := make(map[types.Object]bool)
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			used[obj] = true
		}
	}
	ifaces := l.interfacesByMethod()
	instances := l.instances()

	dead := make(map[string]token.Position)
	for _, p := range l.pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		for _, obj := range p.declared() {
			if used[obj] {
				continue
			}
			key := p.types.Name() + "." + obj.Name()
			if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
				named := receiverNamed(f)
				if implementsByName(named, instances[named.Obj()], f.Name(), ifaces) {
					continue
				}
				key = p.types.Name() + "." + named.Obj().Name() + "." + f.Name()
			}
			pos := l.fset.Position(obj.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = filepath.ToSlash(rel)
			}
			dead[key] = pos
		}
	}
	return dead, nil
}

// loader parses and type-checks module packages from source, and takes the
// standard library from export data.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*loadedPkg // by import path
	std  types.Importer
}

type loadedPkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// parseModule parses every non-test package of the module at dir, skipping
// testdata, dot directories and nested modules.
func (l *loader) parseModule(dir string) error {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return err
	}
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		importPath := path.Join(modPath, filepath.ToSlash(rel))
		lp := &loadedPkg{path: importPath}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(l.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			lp.files = append(lp.files, f)
		}
		l.pkgs[importPath] = lp
		return nil
	})
}

func modulePath(goMod string) (string, error) {
	data, err := os.ReadFile(goMod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", goMod)
}

// checkAll type-checks every parsed package. The standard-library imports
// are resolved through one `go list -export` run for all of them.
func (l *loader) checkAll() error {
	var std []string
	seen := make(map[string]bool)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				ip, _ := strconv.Unquote(imp.Path.Value)
				if _, ok := l.pkgs[ip]; !ok && !seen[ip] && ip != "unsafe" {
					seen[ip] = true
					std = append(std, ip)
				}
			}
		}
	}
	exports := make(map[string]string)
	if len(std) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}, std...)...).Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, "="); ok && file != "" {
				exports[ip] = file
			}
		}
	}
	l.std = importer.ForCompiler(l.fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	})
	paths := make([]string, 0, len(l.pkgs))
	for ip := range l.pkgs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			return err
		}
	}
	return nil
}

// Import implements types.Importer: module packages are type-checked from
// source once each, the rest come from export data.
func (l *loader) Import(ip string) (*types.Package, error) {
	p, ok := l.pkgs[ip]
	if !ok {
		return l.std.Import(ip)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(ip, l.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	return pkg, nil
}

// declared returns the package-level functions, methods, types, consts and
// vars the package's files declare, init and blank names aside.
func (p *loadedPkg) declared() []types.Object {
	var objs []types.Object
	add := func(id *ast.Ident) {
		if id.Name != "_" && id.Name != "init" {
			objs = append(objs, p.info.Defs[id])
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n)
						}
					}
				}
			}
		}
	}
	return objs
}

// interfacesByMethod indexes, by method name, every interface a method
// may be reached through: the universe error, the named interfaces of
// every loaded package and of the packages they import, and the interface
// types the checked sources write down (generic instances included).
func (l *loader) interfacesByMethod() map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// instances maps each generic type to the instantiations that the checked
// sources' expressions have.
func (l *loader) instances() map[*types.TypeName][]types.Type {
	out := make(map[*types.TypeName][]types.Type)
	seen := make(map[types.Type]bool)
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.TypeArgs().Len() > 0 && !seen[named] {
				seen[named] = true
				out[named.Origin().Obj()] = append(out[named.Origin().Obj()], named)
			}
		}
	}
	return out
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(f *types.Func) *types.Named {
	t := f.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return t.(*types.Named)
}

// implementsByName reports whether a pointer to named (or to one of its
// instantiations, when it is generic) implements an interface that has a
// method called method.
func implementsByName(named *types.Named, insts []types.Type, method string, ifaces map[string][]*types.Interface) bool {
	candidates := insts
	if named.TypeParams().Len() == 0 {
		candidates = []types.Type{named}
	}
	for _, iface := range ifaces[method] {
		for _, t := range candidates {
			if types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
	}
	return false
}
