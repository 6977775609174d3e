package morphstream_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed are the production identifiers that may stay although no
// non-test code uses them. Each entry names why, and the ROADMAP item that
// decides its fate.
var testOnlyAllowed = map[string]string{
	"exec.Serial":                "the serial oracle every executor test compares against (item 7(b))",
	"engine.Engine.RecoveredSeq": "the documented resume contract: the last batch a restarted engine replayed (item 16)",
}

// TestNoTestOnlyExports keeps test-only surface out of the engine's
// production packages: every internal package that is not in
// measurementOnly. It fails on an exported identifier (package-level
// object, method or struct field) and on an unexported function or method
// that no non-test code uses. Users are the main module's non-test files and
// the benchmark module, built with and without its "probes" tag. A method
// that satisfies an interface some non-test code uses counts as used.
func TestNoTestOnlyExports(t *testing.T) {
	l := newLoader(t)
	pkgs := modulePackages(t)
	for _, path := range pkgs {
		l.load(path, false)
	}
	l.load(module+"/benchmark", false)
	l.load(module+"/benchmark", true)

	used := l.used()
	for _, path := range pkgs {
		if !strings.HasPrefix(path, module+"/internal/") || isMeasurementOnly(path) {
			continue
		}
		pkg := l.pkgs[key{path, false}]
		t.Run(strings.TrimPrefix(path, module+"/internal/"), func(t *testing.T) {
			for _, c := range candidates(pkg) {
				name := pkg.Name() + "." + c.name
				_, allowed := testOnlyAllowed[name]
				switch {
				case used[c.obj] && allowed:
					t.Errorf("%s is allowlisted but non-test code uses it: drop its entry", name)
				case !used[c.obj] && !allowed:
					t.Errorf("%s: %s has no non-test user: delete it, or move it to an export_test.go", l.fset.Position(c.obj.Pos()), name)
				}
			}
		})
	}
}

// key names one type-checked package: benchmark packages exist once per tag
// set, the main module's once.
type key struct {
	path   string
	probes bool
}

// loader type-checks the repository's packages from source, sharing one
// types.Info so that a use in any package resolves to the defining
// package's own object. The standard library comes from export data.
type loader struct {
	t     *testing.T
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[key]*types.Package
	decls map[types.Object]*ast.FuncDecl
}

func newLoader(t *testing.T) *loader {
	fset := token.NewFileSet()
	return &loader{
		t:    t,
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[key]*types.Package{},
		decls: map[types.Object]*ast.FuncDecl{},
	}
}

// load type-checks the package at path, and first the repository packages
// it imports. probes selects the benchmark's "probes" build tag; it only
// changes which files of benchmark/ are built.
func (l *loader) load(path string, probes bool) *types.Package {
	k := key{path, probes && strings.HasPrefix(path, module+"/benchmark")}
	if pkg, ok := l.pkgs[k]; ok {
		return pkg
	}
	ctx := build.Default
	if k.probes {
		ctx.BuildTags = []string{"probes"}
	}
	dir := "." + strings.TrimPrefix(path, module)
	bp, err := ctx.ImportDir(dir, 0)
	if err != nil {
		l.t.Fatalf("%s: %v", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if imp == module || strings.HasPrefix(imp, module+"/") {
			return l.load(imp, probes), nil
		}
		return l.std.Import(imp)
	})}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		l.t.Fatalf("type-check %s: %v", path, err)
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				l.decls[l.info.Defs[fd.Name]] = fd
			}
		}
	}
	l.pkgs[k] = pkg
	return pkg
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// used is the set of objects some non-test code refers to. A function's
// references to itself from inside its own body do not count, and a method
// is used when it implements a method of an interface that non-test code
// uses.
func (l *loader) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		obj = origin(obj)
		if fd := l.decls[obj]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			continue
		}
		used[obj] = true
	}

	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if s, ok := t.(*types.Slice); ok {
			t = s.Elem()
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			addIface(tv.Type)
		}
	}
	for obj := range used {
		if sig, ok := obj.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				addIface(sig.Params().At(i).Type())
			}
		}
	}
	// The standard library also asserts to these dynamically (fmt's verbs).
	addIface(types.Universe.Lookup("error").Type())
	if fmtPkg, err := l.std.Import("fmt"); err == nil {
		addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	}

	for k, pkg := range l.pkgs {
		if k.probes {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if _, ok := tn.Type().Underlying().(*types.Interface); ok {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						used[origin(obj)] = true
					}
				}
			}
		}
	}
	return used
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// candidate is one identifier the ratchet checks, with its name inside the
// package ("Type.Method", "Type.Field", "Func").
type candidate struct {
	name string
	obj  types.Object
}

// candidates lists pkg's exported package-level objects, the exported
// fields of its struct types, its methods (exported or not) on non-interface
// types, and its unexported functions.
func candidates(pkg *types.Package) []candidate {
	var out []candidate
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if _, isFunc := obj.(*types.Func); obj.Exported() || isFunc && name != "init" {
			out = append(out, candidate{name, obj})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, candidate{name + "." + f.Name(), f})
				}
			}
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			out = append(out, candidate{name + "." + m.Name(), m})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
