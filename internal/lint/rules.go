package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// All returns every rule, sorted by name. The slice is freshly allocated;
// callers may filter it.
func All() []Rule {
	rules := []Rule{
		{
			Name:  "nondet",
			Doc:   "pipeline packages must not reach wall clock or global math/rand state, directly or through in-module calls",
			Check: checkNondet,
		},
		{
			Name:  "goroutine",
			Doc:   "pipeline packages must route concurrency through internal/parallel, not naked go statements",
			Check: checkGoroutine,
		},
		{
			Name:  "maporder",
			Doc:   "map iteration order must not leak into writer output or returned slices",
			Check: checkMapOrder,
		},
		{
			Name:  "errhygiene",
			Doc:   "Close errors on write paths must be handled and error matching must use errors.As",
			Check: checkErrHygiene,
		},
		{
			Name:  "ctxflow",
			Doc:   "pipeline functions that fan out via internal/parallel must take and forward a context.Context",
			Check: checkCtxflow,
		},
		{
			Name:  "fleetalloc",
			Doc:   "streaming paths must allocate O(chunk), never O(fleet)",
			Check: checkFleetalloc,
		},
		{
			Name:  "atomicdiscipline",
			Doc:   "a field accessed via sync/atomic anywhere must never be read or written plainly",
			Check: checkAtomicDiscipline,
		},
		{
			Name:  "obsregistry",
			Doc:   "metric registration is allowed only in package vars, init() or New* constructors",
			Check: checkObsRegistry,
		},
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].Name < rules[j].Name })
	return rules
}

// Select filters All() down to a comma-separated list of rule names.
func Select(names string) ([]Rule, error) {
	names = strings.TrimSpace(names)
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]Rule)
	for _, r := range All() {
		byName[r.Name] = r
	}
	var out []Rule
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q", name)
		}
		out = append(out, r)
	}
	return out, nil
}

// errorType is the universe error type.
var errorType = types.Universe.Lookup("error").Type()

// writerIface is a structural io.Writer, built by hand so rules can test
// types.Implements without access to the loaded io package.
var writerIface = func() *types.Interface {
	sig := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte]))),
		types.NewTuple(
			types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
			types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
		),
		false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

// implementsWriter reports whether t (or *t) satisfies io.Writer. The
// Invalid type (e.g. the "type" of a package identifier) is rejected
// explicitly: method lookup through a pointer to it succeeds vacuously,
// which would make every pkg.Func call look like a writer method.
func implementsWriter(t types.Type) bool {
	if t == nil || t == types.Typ[types.Invalid] {
		return false
	}
	return types.Implements(t, writerIface) || types.Implements(types.NewPointer(t), writerIface)
}

// isErrorType reports whether t is exactly the error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errorType)
}

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// eachFunc invokes fn for every function or method declaration with a body
// in the package, so rules that need the enclosing function get it without
// re-walking.
func eachFunc(p *Pass, fn func(decl *ast.FuncDecl)) {
	for _, file := range p.Files() {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
