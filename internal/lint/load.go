package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Loader parses and type-checks the module without the go tool: module
// packages are resolved from the source tree, everything else (the
// standard library) through go/importer's source mode. This keeps the
// analyzer free of external dependencies and of per-run `go list`
// subprocesses.
type Loader struct {
	fset       *token.FileSet
	std        types.Importer
	moduleRoot string
	modulePath string

	pkgs     map[string]*Package // by import path, after Check
	dirs     map[string]string   // import path -> dir, from the walk
	checking map[string]bool     // cycle guard
}

// NewLoader builds a loader rooted at the module containing dir (the
// nearest parent with a go.mod) and indexes the module's package
// directories. Parsing and type-checking happen lazily, so loading a
// single fixture package only checks the packages it imports.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		moduleRoot: root,
		modulePath: modPath,
		pkgs:       make(map[string]*Package),
		dirs:       make(map[string]string),
		checking:   make(map[string]bool),
	}
	if err := l.indexModule(); err != nil {
		return nil, err
	}
	return l, nil
}

// ModulePath reports the module's import path (go.mod's module line).
func (l *Loader) ModulePath() string { return l.modulePath }

// ModuleRoot reports the directory holding the module's go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// findModule walks up from dir to the nearest go.mod and parses its
// module line.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// indexModule records every package directory in the module.
// Directories named testdata, hidden directories, and _-prefixed
// directories are skipped, mirroring the go tool.
func (l *Loader) indexModule() error {
	return filepath.WalkDir(l.moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			rel, err := filepath.Rel(l.moduleRoot, path)
			if err != nil {
				return err
			}
			ip := l.modulePath
			if rel != "." {
				ip = l.modulePath + "/" + filepath.ToSlash(rel)
			}
			l.dirs[ip] = path
		}
		return nil
	})
}

// LoadModule parses and type-checks every package in the module.
// _test.go files are excluded; tests are free to be nondeterministic
// and to drop errors on intentionally-broken inputs.
func (l *Loader) LoadModule() ([]*Package, error) {
	paths := make([]string, 0, len(l.dirs))
	for ip := range l.dirs {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	var out []*Package
	for _, ip := range paths {
		pkg, err := l.check(ip)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %w", ip, err)
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadDir parses and type-checks a single directory outside the module
// walk (fixture packages under testdata), assigning it the given import
// path so path-scoped passes apply.
func (l *Loader) LoadDir(dir, asImportPath string) (*Package, error) {
	l.dirs[asImportPath] = dir
	pkg, err := l.check(asImportPath)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	return pkg, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Import implements types.Importer: module packages come from the
// source tree (checked on demand), everything else falls through to the
// stdlib source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if dir, ok := l.dirs[path]; ok {
		pkg, err := l.check(path)
		if err != nil {
			return nil, fmt.Errorf("checking %s (%s): %w", path, dir, err)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// check parses and type-checks one module package (idempotent).
func (l *Loader) check(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.checking[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.checking[importPath] = true
	defer delete(l.checking, importPath)

	dir := l.dirs[importPath]
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
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
