package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked target package.
type Package struct {
	// Path is the package's import path.
	Path string
	// ModulePath is the module the package belongs to (for computing the
	// module-relative path that PipelinePackages matches against).
	ModulePath string
	// Dir is the package's directory on disk.
	Dir string
	// Fset maps token.Pos to positions for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records uses, types and selections for Files.
	Info *types.Info
}

// ModuleRoot walks up from dir to the nearest directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			if path := strings.TrimSpace(rest); path != "" {
				return strings.Trim(path, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}

// Loader loads and type-checks target packages of one module, sharing a
// source importer (and its package cache) across loads.
type Loader struct {
	root    string
	modPath string
	im      *sourceImporter
}

// NewLoader prepares a loader for the module rooted at root.
func NewLoader(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{root: root, modPath: modPath, im: newSourceImporter(fset, modPath, root)}, nil
}

// ModulePath returns the loaded module's path.
func (l *Loader) ModulePath() string { return l.modPath }

// Load resolves module-root-relative package patterns ("./...",
// "internal/core", "cmd/...") and returns the matching packages,
// type-checked, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat == "" || pat == "." {
			pat = "..."
		}
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(l.root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			sub, err := packageDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				dirs[d] = true
			}
			continue
		}
		dirs[filepath.Join(l.root, filepath.FromSlash(pat))] = true
	}
	sorted := make([]string, 0, len(dirs))
	for d := range dirs {
		sorted = append(sorted, d)
	}
	sort.Strings(sorted)

	pkgs := make([]*Package, 0, len(sorted))
	for _, dir := range sorted {
		rel, err := filepath.Rel(l.root, dir)
		if err != nil {
			return nil, err
		}
		path := l.modPath
		if rel != "." {
			path = l.modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadAs loads the single directory dir as a package with the given import
// path. It exists for fixture packages under testdata/, which need to pose
// as pipeline packages to exercise pipeline-scoped rules.
func (l *Loader) LoadAs(dir, importPath string) (*Package, error) {
	if !filepath.IsAbs(dir) {
		dir = filepath.Join(l.root, filepath.FromSlash(dir))
	}
	return l.loadDir(dir, importPath)
}

// loadDir parses and type-checks one directory as importPath.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	names, err := l.im.goFiles(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.im.parse(dir, names)
	if err != nil {
		return nil, err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := l.im.checkInfo(importPath, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %q: %w", importPath, err)
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %q: %w", importPath, err)
	}
	if _, ok := l.im.pkgs[importPath]; !ok {
		l.im.pkgs[importPath] = tpkg
	}
	return &Package{
		Path:       importPath,
		ModulePath: l.modPath,
		Dir:        dir,
		Fset:       l.im.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// packageDirs returns every directory under base holding at least one .go
// file, skipping hidden directories, vendor and testdata trees.
func packageDirs(base string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(dirs))
	out := dirs[:0]
	for _, d := range dirs {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out, nil
}
