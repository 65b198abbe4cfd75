package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestDirtyFixtureJSON golden-pins the -json output: rule names, stable
// module-root-relative paths, positions and field order.
func TestDirtyFixtureJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "./testdata/dirty"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (stderr %q), want 1", code, errb.String())
	}
	golden := filepath.Join("testdata", "dirty.golden.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json output drifted from golden:\n got: %s\nwant: %s", out.Bytes(), want)
	}
	// The golden itself must stay well-formed and field-ordered.
	var parsed []map[string]any
	if err := json.Unmarshal(want, &parsed); err != nil {
		t.Fatalf("golden is not valid JSON: %v", err)
	}
	if len(parsed) != 2 {
		t.Fatalf("golden has %d findings, want 2", len(parsed))
	}
}

// TestDirtyFixtureText asserts the human-readable mode carries the rule
// name and position for each violation.
func TestDirtyFixtureText(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"./testdata/dirty"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (stderr %q), want 1", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"cmd/cosmiclint/testdata/dirty/dirty.go:12:2:",
		"[maporder]",
		"cmd/cosmiclint/testdata/dirty/dirty.go:22:8:",
		"[errhygiene]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
}

// TestCleanFixture exits 0 with no output.
func TestCleanFixture(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./testdata/clean"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d (stdout %q, stderr %q), want 0", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output: %q", out.String())
	}
}

// TestRulesFilter: with the offending rule filtered out, the dirty
// fixture is clean; with an unknown rule, load fails with exit 2.
func TestRulesFilter(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "nondet,goroutine", "./testdata/dirty"}, &out, &errb); code != 0 {
		t.Fatalf("filtered exit = %d, want 0 (stdout %q)", code, out.String())
	}
	if code := run([]string{"-rules", "conjuration", "./testdata/dirty"}, &out, &errb); code != 2 {
		t.Fatalf("unknown-rule exit = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown rule") {
		t.Errorf("stderr = %q, want unknown rule message", errb.String())
	}
}

// TestListRules prints every rule with its doc line.
func TestListRules(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, rule := range []string{"nondet", "goroutine", "maporder", "errhygiene"} {
		if !strings.Contains(out.String(), rule) {
			t.Errorf("-list output missing rule %q:\n%s", rule, out.String())
		}
	}
}

// TestBadPattern: a path outside the module is a load error, not a crash.
func TestBadPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"/no/such/module/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr %q)", code, errb.String())
	}
}

// tmpModule lays out a throwaway module under a temp dir and chdirs into
// it, so run() resolves it as the module root.
func tmpModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// TestFixStaleAllow drives the -fix flow end to end on a module whose
// one fixable finding sits next to an allow directive for the wrong
// rule: the fix lands, the re-run reports the (still-unused) directive
// deterministically, and a second -fix pass changes nothing.
func TestFixStaleAllow(t *testing.T) {
	dir := tmpModule(t, map[string]string{
		"dump.go": `package tmpmod

import (
	"fmt"
	"io"
)

func dump(w io.Writer, m map[int]int) {
	//cosmiclint:allow nondet staleness fixture: nothing below reads the clock
	for k := range m {
		fmt.Fprintln(w, k)
	}
}
`,
	})

	var out, errb bytes.Buffer
	if code := run([]string{"-fix", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("first -fix exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "fixed dump.go") {
		t.Errorf("stderr = %q, want a fixed dump.go line", errb.String())
	}
	if strings.Contains(out.String(), "[maporder]") {
		t.Errorf("maporder finding survived its own fix:\n%s", out.String())
	}
	wantStale := `unused cosmiclint:allow directive for rule "nondet"`
	if !strings.Contains(out.String(), wantStale) {
		t.Errorf("post-fix report lacks the stale directive finding %q:\n%s", wantStale, out.String())
	}
	firstReport := out.String()
	fixedOnce, err := os.ReadFile(filepath.Join(dir, "dump.go"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixedOnce), "slices.Sort(") {
		t.Errorf("fix was not applied:\n%s", fixedOnce)
	}

	// Second pass: nothing left to rewrite, identical bytes, identical
	// report — the stale directive is reported the same way every run.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-fix", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("second -fix exit = %d, want 1", code)
	}
	if strings.Contains(errb.String(), "fixed ") {
		t.Errorf("second -fix rewrote files: %q", errb.String())
	}
	if out.String() != firstReport {
		t.Errorf("report drifted between -fix runs:\n first: %s\nsecond: %s", firstReport, out.String())
	}
	fixedTwice, err := os.ReadFile(filepath.Join(dir, "dump.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(fixedTwice) != string(fixedOnce) {
		t.Errorf("-fix is not idempotent:\n first:\n%s\nsecond:\n%s", fixedOnce, fixedTwice)
	}
}

// transitiveGolden is the fixture behind TestTransitiveJSON: a
// non-pipeline helper that reads the clock, and a pipeline caller
// (internal/core is on the pipeline list of any module) that reaches it
// only through the call graph.
var transitiveFixture = map[string]string{
	"internal/other/helper.go": `package other

import "time"

func Stamp() time.Time {
	return time.Now()
}
`,
	"internal/core/use.go": `package core

import (
	"time"

	"tmpmod/internal/other"
)

func Use() time.Time {
	return other.Stamp()
}
`,
}

// TestTransitiveJSON golden-pins the -json encoding of a transitive
// nondet finding — in particular the path field, which older clients
// must be able to ignore and new ones must be able to rely on.
func TestTransitiveJSON(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "transitive.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	tmpModule(t, transitiveFixture)

	var out, errb bytes.Buffer
	if code := run([]string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr %q)", code, errb.String())
	}
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-json transitive output drifted from golden:\n got: %s\nwant: %s", out.Bytes(), want)
	}
}

// TestWholeTreeClean is the dogfood gate in miniature: the repository at
// HEAD must lint clean. (verify.sh runs the same check from the shell;
// this keeps `go test ./...` sufficient to catch regressions.)
func TestWholeTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("cosmiclint ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}
