// Package lint is cosmiclint: a domain-specific static analyzer that
// machine-checks the determinism and hygiene invariants the CosmicDance
// pipeline is built on. The headline guarantee of the reproduction —
// bit-identical datasets and figures at every worker count and on every
// rerun — rests on a handful of conventions (no wall-clock reads in the
// physics, no shared global RNG, no concurrency outside internal/parallel,
// no map-iteration order leaking into output, context cancellation flowing
// through every fan-out, O(chunk) not O(fleet) allocation on streaming
// paths, atomic fields never read plainly). This package turns each
// convention into a Rule that go/parser + go/types can enforce, so a
// regression fails `make lint` instead of silently invalidating results.
//
// The analyzer is stdlib-only (go/ast, go/parser, go/types): the build
// environment is offline, so it loads every package — stdlib included —
// from source with its own importer rather than depending on
// golang.org/x/tools.
//
// Since v2 the analysis is whole-module: Run first builds a Module — a
// call graph over every loaded package with interface calls resolved to
// in-module implementations, plus a registry of atomically-accessed
// struct fields — and rules read both the per-package syntax and the
// module context. The nondet rule is therefore transitive: a pipeline
// function that reaches time.Now three helpers deep is flagged with the
// full call path.
//
// A finding can be suppressed at a legitimate site with a directive
// comment on the flagged line or the line above it:
//
//	//cosmiclint:allow <rule> <reason>
//
// The reason is mandatory and unused or malformed directives are
// themselves findings, so the escape hatch cannot rot silently. One
// directive suppresses every finding of its rule on the covered lines
// (two findings on one line need one directive, not two); an allow on a
// nondet sink also waives the taint for transitive callers — the reason
// vouches for every path through it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one rule violation at one position.
type Finding struct {
	// Rule is the name of the rule that fired.
	Rule string
	// Pos locates the violation.
	Pos token.Position
	// Message explains the violation and how to fix it.
	Message string
	// Path is the call path for transitive findings (function ids ending
	// in the sink name), empty otherwise.
	Path []string
	// SuggestedFix is the mechanical rewrite that removes the violation,
	// or nil when the fix needs human judgment (ctx threading, locking
	// discipline).
	SuggestedFix *Fix
}

// String renders a finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
}

// Rule is one self-contained invariant check. Check inspects a single
// type-checked package via the Pass and reports violations through it.
type Rule struct {
	// Name is the short identifier used in findings, -rules filters and
	// allow directives.
	Name string
	// Doc is a one-line description of the invariant the rule enforces.
	Doc string
	// Check runs the rule over one package.
	Check func(*Pass)
}

// PipelinePackages lists the module-relative import paths whose code must
// be deterministic: everything on the TLE → dataset → figures path, plus
// the CLI that orchestrates it. The nondet, goroutine and ctxflow rules
// fire only inside these packages; maporder, errhygiene,
// atomicdiscipline and obsregistry apply module-wide.
var PipelinePackages = []string{
	"cmd/cosmicdance",
	"cmd/spaceload",
	"internal/artifact",
	"internal/atmosphere",
	"internal/conjunction",
	"internal/constellation",
	"internal/core",
	"internal/dst",
	"internal/groundtrack",
	"internal/incremental",
	"internal/loadsim",
	"internal/obs",
	"internal/orbit",
	"internal/report",
	"internal/scale",
	"internal/spaceweather",
	"internal/stats",
	"internal/trigger",
}

// StreamingPackages lists the module-relative import paths (or, with a
// trailing filename fragment after "#", single files) whose allocations
// must stay O(chunk): the scale harness end to end, and the chunked
// entry points of the constellation/core/artifact pipeline. See
// fleetalloc.
var StreamingPackages = []string{
	"internal/scale",
	"internal/artifact#chunked",
	"internal/constellation#chunk",
	"internal/core#chunk",
}

// Pass carries one package through every rule. Rules read the syntax and
// type information and call Reportf; the pass owns directive matching and
// finding accumulation.
type Pass struct {
	pkg      *Package
	mod      *Module
	rule     *Rule
	findings *[]Finding
	allows   []*allowDirective
}

// Package exposes the loaded package to rules.
func (p *Pass) Package() *Package { return p.pkg }

// Module exposes the whole-program context (call graph, atomic registry).
func (p *Pass) Module() *Module { return p.mod }

// Files returns the package's parsed (non-test) files.
func (p *Pass) Files() []*ast.File { return p.pkg.Files }

// Fset returns the position table for the package's files.
func (p *Pass) Fset() *token.FileSet { return p.pkg.Fset }

// InPipeline reports whether the package is on the deterministic pipeline
// path (see PipelinePackages).
func (p *Pass) InPipeline() bool {
	rel := p.relPath()
	for _, pp := range PipelinePackages {
		if rel == pp {
			return true
		}
	}
	return false
}

// InStreaming reports whether the file containing pos is on the
// bounded-memory streaming path (see StreamingPackages).
func (p *Pass) InStreaming(pos token.Pos) bool {
	rel := p.relPath()
	file := p.pkg.Fset.Position(pos).Filename
	for _, sp := range StreamingPackages {
		pkgPart, filePart, scoped := strings.Cut(sp, "#")
		if rel != pkgPart {
			continue
		}
		if !scoped || strings.Contains(baseName(file), filePart) {
			return true
		}
	}
	return false
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func (p *Pass) relPath() string {
	return strings.TrimPrefix(strings.TrimPrefix(p.pkg.Path, p.pkg.ModulePath), "/")
}

// Reportf records a finding for the running rule at pos, unless an allow
// directive for the rule covers the position's line (or the directive sits
// on the line immediately above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Finding{
		Rule:    p.rule.Name,
		Pos:     p.pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Report records a fully-formed finding (rule name is overwritten with the
// running rule's), applying the same allow-directive suppression as
// Reportf. Rules use it to attach call paths and suggested fixes.
func (p *Pass) Report(f Finding) {
	f.Rule = p.rule.Name
	for _, a := range p.allows {
		if a.rule != f.Rule || a.file != f.Pos.Filename {
			continue
		}
		if a.line == f.Pos.Line || a.line == f.Pos.Line-1 {
			a.used = true
			return
		}
	}
	*p.findings = append(*p.findings, f)
}

// Run applies rules to every package and returns the combined findings
// sorted by file, line, column and rule. Unused and malformed allow
// directives are reported under the "allowdirective" pseudo-rule; a
// directive for a rule that is not in this run's selection is left alone
// (it cannot be consumed, so it cannot be judged unused).
func Run(pkgs []*Package, rules []Rule) []Finding {
	var findings []Finding
	selected := make(map[string]bool, len(rules))
	for i := range rules {
		selected[rules[i].Name] = true
	}
	known := make(map[string]bool)
	for _, r := range All() {
		known[r.Name] = true
	}

	allowsByPkg := make(map[*Package][]*allowDirective, len(pkgs))
	for _, pkg := range pkgs {
		allows, bad := parseAllows(pkg, known)
		findings = append(findings, bad...)
		allowsByPkg[pkg] = allows
	}

	mod := buildModuleIfNeeded(pkgs, rules, allowsByPkg)

	for _, pkg := range pkgs {
		for i := range rules {
			pass := &Pass{pkg: pkg, mod: mod, rule: &rules[i], findings: &findings, allows: allowsByPkg[pkg]}
			rules[i].Check(pass)
		}
		for _, a := range allowsByPkg[pkg] {
			if !a.used && selected[a.rule] {
				findings = append(findings, Finding{
					Rule:    DirectiveRule,
					Pos:     a.pos,
					Message: fmt.Sprintf("unused cosmiclint:allow directive for rule %q: nothing on this or the next line triggers it", a.rule),
				})
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return findings
}

// moduleRules names the rules that need the whole-program Module; a run
// restricted to purely syntactic rules skips the (cheap, but not free)
// graph build.
var moduleRules = map[string]bool{"nondet": true, "atomicdiscipline": true}

func buildModuleIfNeeded(pkgs []*Package, rules []Rule, allowsByPkg map[*Package][]*allowDirective) *Module {
	for i := range rules {
		if moduleRules[rules[i].Name] {
			return buildModule(pkgs, allowsByPkg)
		}
	}
	// Rules still get a non-nil, empty module so they never nil-check.
	return buildModule(nil, nil)
}
