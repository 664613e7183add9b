package nazar_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// scanArches are the GOARCH values whose build constraints the scan
// unions, so both the amd64 assembly declarations and the portable Go
// loops beside them (tensor's quad_other.go) count as product code.
var scanArches = []string{"amd64", "arm64"}

// listedPkg is the part of `go list -json` output the scan reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	Error      *struct{ Err string }
}

// TestNoTestOnlyExports fails when an exported identifier declared
// under internal/ (a package-level name, a method, or a field of a named
// struct) has no reference from a reachable declaration of non-test code:
// internal/, cmd/, examples/ and bench/ all count as consumers. The roots
// are every declaration of a main package, every init function and every
// package-level variable; a declaration they reference is reachable, and
// so are the references in its own body, so code that only dead code
// calls counts as unused. An oracle, harness or fake that only tests use
// belongs in a _test.go file beside them. A method is exempt when its
// receiver type is reachable and implements an interface declaring it,
// since a call through the interface names the interface's method, not
// the receiver's. The test keeps no allowlist.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := &exportScan{declared: map[string]string{}, used: map[string]bool{}, exempt: map[string]bool{}}
	for _, arch := range scanArches {
		s.check(t, goList(t, arch))
	}
	var unused []string
	for pos, name := range s.declared {
		if !s.used[pos] && !s.exempt[pos] {
			if rel, err := filepath.Rel(root, pos); err == nil {
				pos = rel
			}
			unused = append(unused, fmt.Sprintf("%s (%s)", name, pos))
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported identifiers under internal/ are referenced only by tests; delete them, move them into a _test.go file, or unexport them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// goList returns every package ./... depends on, standard library
// included, for one GOARCH, each listed after the packages it imports.
func goList(t *testing.T, arch string) []listedPkg {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list (GOARCH=%s): %v\n%s", arch, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// exportScan accumulates, across build configurations, the module's
// exported internal/ declarations, the objects reachable non-test module
// code references, and the reachable methods that satisfy an interface,
// each keyed by its declaring position (file:line:col).
type exportScan struct {
	declared map[string]string // position -> qualified name
	used     map[string]bool
	exempt   map[string]bool
}

// check type-checks pkgs once each, in order, every package importing
// the already-checked ones; standard-library bodies are skipped.
func (s *exportScan) check(t *testing.T, pkgs []listedPkg) {
	t.Helper()
	fset := token.NewFileSet()
	checked := map[string]*types.Package{"unsafe": types.Unsafe}
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	type modPkg struct {
		pkg   *types.Package
		info  *types.Info
		files []*ast.File
	}
	var mods []modPkg
	for _, lp := range pkgs {
		if lp.ImportPath == "unsafe" {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", lp.ImportPath, err)
			}
			files = append(files, f)
		}
		importMap := lp.ImportMap
		conf := types.Config{
			IgnoreFuncBodies: lp.Standard,
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := importMap[path]; ok {
					path = mapped
				}
				if p := checked[path]; p != nil {
					return p, nil
				}
				return nil, fmt.Errorf("%s is not checked yet", path)
			}),
		}
		var info *types.Info
		if !lp.Standard {
			info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}}
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		if !lp.Standard {
			mods = append(mods, modPkg{pkg, info, files})
			for _, tv := range info.Types {
				if it, ok := tv.Type.(*types.Interface); ok {
					ifaces = append(ifaces, it) // interface literals
				}
			}
		}
	}

	posKey := func(pos token.Pos) string {
		p := fset.Position(pos)
		return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
	}
	// The declaration graph: each top-level declaration (keyed by its
	// name's position, which is its object's) with the objects its source
	// references, and each named type with its methods that satisfy an
	// interface, which a reachable type keeps.
	refs := map[string][]string{}
	kept := map[string][]string{}
	var roots []string
	for _, m := range mods {
		isMain := m.pkg.Name() == "main"
		uses := func(n ast.Node) []string {
			var out []string
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := m.info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pos().IsValid() {
						out = append(out, posKey(obj.Pos()))
					}
				}
				return true
			})
			return out
		}
		decl := func(name *ast.Ident, n ast.Node, root bool) {
			key := posKey(name.Pos())
			refs[key] = append(refs[key], uses(n)...)
			if root || isMain {
				roots = append(roots, key)
			}
		}
		for _, f := range m.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					decl(d.Name, d, d.Recv == nil && d.Name.Name == "init")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							decl(spec.Name, spec, false)
						case *ast.ValueSpec:
							// A constant without values repeats the group's
							// last expression, so constants take the group.
							var n ast.Node = spec
							if d.Tok == token.CONST {
								n = d
							}
							for _, name := range spec.Names {
								decl(name, n, d.Tok == token.VAR)
							}
						}
					}
				}
			}
		}
		scope := m.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if fn := named.Method(i); satisfiesInterface(named, fn.Name(), ifaces) {
							kept[posKey(tn.Pos())] = append(kept[posKey(tn.Pos())], posKey(fn.Pos()))
						}
					}
				}
			}
		}
	}
	reachable := map[string]bool{}
	for len(roots) > 0 {
		key := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reachable[key] {
			continue
		}
		reachable[key] = true
		roots = append(roots, refs[key]...)
		roots = append(roots, kept[key]...)
	}
	for key := range reachable {
		for _, used := range refs[key] {
			s.used[used] = true
		}
	}

	for _, m := range mods {
		if !strings.Contains(m.pkg.Path()+"/", "/internal/") {
			continue
		}
		short := m.pkg.Name()
		scope := m.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				s.declared[posKey(obj.Pos())] = short + "." + name
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if !fn.Exported() {
					continue
				}
				key := posKey(fn.Pos())
				s.declared[key] = short + "." + name + "." + fn.Name()
				if reachable[key] && satisfiesInterface(named, fn.Name(), ifaces) {
					s.exempt[key] = true
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						s.declared[posKey(f.Pos())] = short + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
}

// satisfiesInterface reports whether T or *T implements one of ifaces
// that declares a method called name.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		if !it.IsMethodSet() || !declares(it, name) {
			continue
		}
		if types.Implements(named, it) || types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

// declares reports whether it has a method called name.
func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
