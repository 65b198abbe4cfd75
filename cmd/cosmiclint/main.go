// Command cosmiclint is the CosmicDance determinism linter. It loads
// every package named by its arguments (module-root-relative patterns;
// default ./...), builds a module-wide call graph, and reports violations
// of the pipeline's codified invariants: no wall-clock or global-RNG
// reads in pipeline packages (directly or transitively through in-module
// calls), no naked goroutines outside internal/parallel, no map-iteration
// order leaking into output, no discarded Close errors or direct
// error-type assertions, cancellation flowing through every parallel
// fan-out, O(chunk) allocation on streaming paths, atomic fields never
// accessed plainly, and metric registration off the hot paths.
//
// Usage:
//
//	cosmiclint [-rules nondet,maporder,...] [-json] [-list]
//	           [-fix] [patterns]
//
// -fix applies the mechanical rewrites (sort-before-range, errors.As,
// checked Close) and re-runs the analysis on the rewritten tree; the
// remaining findings — including allow directives the fixes made stale —
// are what gets reported.
//
// Exit status is 0 when clean, 1 when findings were reported, 2 when the
// tree could not be loaded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cosmicdance/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding fixes the marshalled field order (encoding/json emits
// struct fields in declaration order), so -json output is stable enough
// to golden-pin.
type jsonFinding struct {
	Rule    string   `json:"rule"`
	File    string   `json:"file"`
	Line    int      `json:"line"`
	Col     int      `json:"col"`
	Message string   `json:"message"`
	Path    []string `json:"path,omitempty"`
	Fixable bool     `json:"fixable,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cosmiclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesFlag := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	jsonFlag := fs.Bool("json", false, "emit findings as a JSON array")
	listFlag := fs.Bool("list", false, "list the rules and exit")
	fixFlag := fs.Bool("fix", false, "apply suggested fixes, then re-run the analysis")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rules, err := lint.Select(*rulesFlag)
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return 2
	}
	if *listFlag {
		for _, r := range rules {
			fmt.Fprintf(stdout, "%-18s %s\n", r.Name, r.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return 2
	}
	root, err := lint.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rel, err := rootRelative(patterns, cwd, root)
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return 2
	}

	findings, pkgs, code := analyze(root, rel, rules, stderr)
	if code != 0 {
		return code
	}

	if *fixFlag {
		fixed, err := lint.ApplyFixes(pkgs, findings)
		if err != nil {
			fmt.Fprintf(stderr, "cosmiclint: applying fixes: %v\n", err)
			return 2
		}
		for _, name := range fixed {
			fmt.Fprintf(stderr, "cosmiclint: fixed %s\n", displayPath(name, root))
		}
		if len(fixed) > 0 {
			// Re-run on the rewritten tree: what remains (including allow
			// directives the fixes just made stale) is the real report.
			findings, _, code = analyze(root, rel, rules, stderr)
			if code != 0 {
				return code
			}
		}
	}

	if *jsonFlag {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				Rule:    f.Rule,
				File:    displayPath(f.Pos.Filename, root),
				Line:    f.Pos.Line,
				Col:     f.Pos.Column,
				Message: f.Message,
				Path:    f.Path,
				Fixable: f.SuggestedFix != nil,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s [%s]\n",
				displayPath(f.Pos.Filename, root), f.Pos.Line, f.Pos.Column, f.Message, f.Rule)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// analyze loads the packages and runs the rules once. A fresh loader per
// call keeps re-analysis after -fix honest: it reparses from disk.
func analyze(root string, patterns []string, rules []lint.Rule, stderr io.Writer) ([]lint.Finding, []*lint.Package, int) {
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return nil, nil, 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cosmiclint: %v\n", err)
		return nil, nil, 2
	}
	return lint.Run(pkgs, rules), pkgs, 0
}

// rootRelative rewrites cwd-relative patterns to module-root-relative
// ones, preserving any /... suffix.
func rootRelative(patterns []string, cwd, root string) ([]string, error) {
	out := make([]string, 0, len(patterns))
	for _, pat := range patterns {
		suffix := ""
		base := pat
		if rest, ok := strings.CutSuffix(filepath.ToSlash(pat), "..."); ok {
			suffix = "..."
			base = strings.TrimSuffix(rest, "/")
			if base == "" || base == "." {
				base = "."
			}
		}
		abs := base
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(cwd, base)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil {
			return nil, err
		}
		if rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, fmt.Errorf("pattern %q escapes the module root %s", pat, root)
		}
		rel = filepath.ToSlash(rel)
		if suffix != "" {
			if rel == "." {
				rel = "..."
			} else {
				rel += "/..."
			}
		}
		out = append(out, rel)
	}
	return out, nil
}

// displayPath renders a finding path relative to the module root with
// forward slashes: stable across checkouts, so tests can pin it.
func displayPath(path, root string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(path)
}
