package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("prord/internal/sim").
	Path string
	// Fset positions every file in the loader's shared file set.
	Fset *token.FileSet
	// Files are the parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (possibly incomplete if the
	// sources had type errors; see TypeErrors).
	Types *types.Package
	// Info holds the resolved types, uses and definitions.
	Info *types.Info
	// TypeErrors are soft type-checking errors. Analysis proceeds on the
	// partial information; go build remains the authority on validity.
	TypeErrors []error
}

// A loader parses and type-checks packages of one module from source.
// Imports within the module are resolved recursively from the module
// tree; all other imports (the standard library) go through the
// go/importer source importer. No export data or go command is needed.
type loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package // keyed by import path
	loading    map[string]bool     // import-cycle guard
}

// Load parses and type-checks every package of the module containing
// the working directory, in directory-walk order. Like ./... it skips
// testdata, vendor, and directories whose names start with "." or "_".
func Load() ([]*Package, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(wd)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:       fset,
		moduleDir:  modDir,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
	var pkgs []*Package
	err = filepath.WalkDir(modDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != modDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		if len(goFiles(path)) == 0 {
			return nil
		}
		pkg, err := l.load(l.importPathFor(path), path)
		if err != nil {
			return fmt.Errorf("lint: loading %s: %w", path, err)
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	return pkgs, err
}

// findModule walks up from dir to the enclosing go.mod and parses its
// module path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
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
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// goFiles lists the non-test Go sources in dir, sorted. An unreadable
// directory lists nothing, which load reports as having no Go files.
func goFiles(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// importPathFor derives the import path of a directory inside the module.
func (l *loader) importPathFor(absDir string) string {
	rel, err := filepath.Rel(l.moduleDir, absDir)
	if err != nil || rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}

// load parses and checks one package, memoized by import path.
func (l *loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	fileNames := goFiles(dir)
	if len(fileNames) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	pkg := &Package{Path: path, Fset: l.fset, Files: files}
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	// Check never aborts on soft errors (they accumulate via conf.Error);
	// the partial Info is enough for analysis.
	tpkg, _ := conf.Check(path, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-local paths load from the
// module tree, everything else from the standard library source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		rest := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
		pkg, err := l.load(path, filepath.Join(l.moduleDir, filepath.FromSlash(rest)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
