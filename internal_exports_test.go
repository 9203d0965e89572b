package coldtall

// Dead-export guard: every exported func, method, type, const and var
// declared under internal/ must be referenced from some non-test Go file of
// this module. Nothing outside the module can import internal/ packages,
// so an export that only tests call is production code kept alive for its
// tests — the exhaustive oracles and test fixtures belong in _test.go.
//
// The scan is syntactic (go/parser, no type checking). A package-level name
// counts as referenced when another declaration of its package names it, or
// a file selects it through its import (array.Characterize). A method
// counts as referenced when any non-test file selects a member of that
// name (x.Characterize). Without types that over-approximates methods: the
// guard may miss a dead method whose name another type's member shares
// (or one reached only through an interface a standard-library caller
// holds, such as a String only fmt calls), but it never flags a live one.
// The perfbench harness is its own module and is not scanned; the internal
// names it calls without a production caller are allow-listed below, since
// its compile surface is frozen.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowList names the internal exports that stay whether or not
// production calls them, each with the reason.
var exportAllowList = map[string]string{
	"sim.NewSharded":                           "perfbench",
	"tech.NewWire":                             "perfbench",
	"explorer.Explorer.CharacterizeContext":    "perfbench",
	"explorer.Explorer.EvaluateContext":        "perfbench",
	"explorer.Explorer.EvaluateAllContext":     "perfbench",
	"explorer.Explorer.CachedCharacterization": "perfbench",
	"explorer.Explorer.OptimizeCalls":          "perfbench",
	"array.OptimizeWithStats":                  "perfbench",
	"signature.NewIndex":                       "perfbench",
	"array.Characterize":                       "building block of the exhaustive-search oracle in array's tests",
	"trace.Collect":                            "test utility: 15 test files across 7 packages draw generator accesses through it",
	"trace.WriteText":                          "test utility: 10 test files across 6 packages build text-format traces with it",
	"dram.Model.AccessEnergy":                  "DRAM power term the walkthrough's memory-system example prices (its output is pinned); needs dram's unexported config",
	"dram.Model.BackgroundPower":               "DRAM power term the walkthrough's memory-system example prices (its output is pinned); needs dram's unexported corner",
}

func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	declared := make(map[string]token.Position) // "pkg.Name" or "pkg.Type.Method"
	referenced := make(map[string]bool)         // "pkg.Name"
	selected := make(map[string]bool)           // every selector name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && (name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".")) {
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
		dir := filepath.ToSlash(filepath.Dir(p))
		pkg := ""
		if strings.HasPrefix(dir, "internal/") {
			pkg = path.Base(dir)
		}
		scanFile(fset, f, pkg, declared, referenced, selected)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for name, pos := range declared {
		if _, ok := exportAllowList[name]; ok {
			continue
		}
		if parts := strings.Split(name, "."); len(parts) == 3 {
			if selected[parts[2]] {
				continue
			}
		} else if referenced[name] {
			continue
		}
		dead = append(dead, name+" ("+pos.String()+")")
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("internal export with no non-test caller: %s", name)
	}
	if len(dead) > 0 {
		t.Logf("%d dead exports: delete them, move them into a _test.go file, or allow-list them with a reason", len(dead))
	}
	for name := range exportAllowList {
		if _, ok := declared[name]; !ok {
			t.Errorf("allow-listed %s is not declared under internal/", name)
		}
	}
}

// scanFile records the exported declarations of an internal package file
// (pkg non-empty) and every reference the file makes to internal names.
func scanFile(fset *token.FileSet, f *ast.File, pkg string, declared map[string]token.Position, referenced, selected map[string]bool) {
	imports := make(map[string]string) // local name -> internal package name
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(ip, "coldtall/internal/") {
			continue
		}
		local := path.Base(ip)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path.Base(ip)
	}
	for _, decl := range f.Decls {
		// self holds the identifiers that declare this declaration's
		// package-level names; declaring a name is not a use of it.
		self := make(map[*ast.Ident]bool)
		switch d := decl.(type) {
		case *ast.FuncDecl:
			self[d.Name] = true
			if pkg != "" && d.Name.IsExported() {
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + recvType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				declared[key] = fset.Position(d.Pos())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self[s.Name] = true
					if pkg != "" && s.Name.IsExported() {
						declared[pkg+"."+s.Name.Name] = fset.Position(s.Pos())
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[n] = true
						if pkg != "" && n.IsExported() {
							declared[pkg+"."+n.Name] = fset.Position(n.Pos())
						}
					}
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FieldList:
				// A method's receiver names its own type; that is not a use.
				if fd, ok := decl.(*ast.FuncDecl); ok && x == fd.Recv {
					return false
				}
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if target, ok := imports[id.Name]; ok {
						referenced[target+"."+x.Sel.Name] = true
						return false
					}
				}
				selected[x.Sel.Name] = true
			case *ast.Ident:
				if pkg != "" && !self[x] {
					referenced[pkg+"."+x.Name] = true
				}
			}
			return true
		})
	}
}

// recvType returns the base type name of a method receiver.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
