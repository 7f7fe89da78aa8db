package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pegasus/internal/lint"
	"pegasus/internal/lint/load"
)

// TestAnalyzerSuite smoke-checks that the full analyzer set loads with
// well-formed metadata.
func TestAnalyzerSuite(t *testing.T) {
	all := lint.All()
	if len(all) != 9 {
		t.Fatalf("expected 9 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	dirs := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if dirs[a.DirectiveName()] {
			t.Errorf("duplicate suppression directive %q", a.DirectiveName())
		}
		dirs[a.DirectiveName()] = true
	}
}

// repoLoad is the one load of the module that the repo tests share:
// lint.Run only reads the packages it is given.
var repoLoad struct {
	once sync.Once
	pkgs []*load.Package
	err  error
}

// loadRepo loads the whole module once per test run, test variants
// included — exactly the package set `pegasus-lint ./...` checks.
func loadRepo(t *testing.T) []*load.Package {
	t.Helper()
	repoLoad.once.Do(func() {
		repoLoad.pkgs, repoLoad.err = load.LoadConfig(load.Config{Dir: "../.."}, "./...")
	})
	pkgs, err := repoLoad.pkgs, repoLoad.err
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded (%d); did load.LoadConfig lose the module root?", len(pkgs))
	}
	return pkgs
}

// TestRepoIsClean runs the full suite over the entire module — exactly what
// `pegasus-lint ./...` and the CI gate do — and demands zero findings. This
// is the executable form of the bootstrap guarantee: every true positive in
// the tree has been fixed or carries a justified //lint: annotation, and a
// reintroduced violation (say, an unordered map range in internal/core, or
// an unjoined goroutine in internal/server) fails this test before it ever
// reaches CI. It also demands zero stale suppressions: an annotation whose
// diagnostic has disappeared must be deleted with the fix that removed it.
func TestRepoIsClean(t *testing.T) {
	pkgs := loadRepo(t)
	res, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
	for _, f := range res.UnusedSuppressions(pkgs, lint.All()) {
		t.Errorf("%s", f)
	}
}

// TestRepoCoversTestFiles pins the test-variant loading that maporder's
// _test.go coverage depends on: the loaded package set must include files
// ending in _test.go for the determinism-critical packages.
func TestRepoCoversTestFiles(t *testing.T) {
	pkgs := loadRepo(t)
	found := false
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.Path, "pegasus/internal/core") {
			continue
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.FileStart).Filename
			if strings.HasSuffix(name, "_test.go") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no _test.go files loaded for pegasus/internal/core; test-variant loading is broken and maporder's test coverage is gone")
	}
}

// TestExitCodes pins the driver's contract on a stdlib-only temp module:
// one run reports invariant violations and stale suppressions alike (exit
// 2 on either), a package that fails to type-check exits 1, and -json
// lists a stale comment under findings as analyzer "suppressions".
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":           "module example.com/lintexit\n\ngo 1.24\n",
		"clean/clean.go":   "package clean\n\nfunc Add(a, b int) int { return a + b }\n",
		"root/root.go":     "package root\n\nimport \"context\"\n\nfunc Root() context.Context { return context.Background() }\n",
		"broken/broken.go": "package broken\n\nfunc F() int { return \"x\" }\n",
		"stale/stale.go": "package stale\n\nimport \"context\"\n\n" +
			"func Pass(ctx context.Context) context.Context {\n" +
			"\t//lint:ctxflow excused a root that has since been removed\n" +
			"\treturn ctx\n}\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	for _, tc := range []struct {
		pkg  string
		want int
	}{
		{"./clean", 0},
		{"./root", 2},   // context.Background() in a library package
		{"./stale", 2},  // a //lint:ctxflow comment that suppresses nothing
		{"./broken", 1}, // fails to type-check
	} {
		if code := run([]string{tc.pkg}); code != tc.want {
			t.Errorf("pegasus-lint %s exited %d, want %d", tc.pkg, code, tc.want)
		}
	}

	var code int
	out := captureStdout(t, func() { code = run([]string{"-json", "./stale"}) })
	if code != 2 {
		t.Errorf("pegasus-lint -json ./stale exited %d, want 2", code)
	}
	var res jsonResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, out)
	}
	if len(res.Findings) != 1 || res.Findings[0].Analyzer != "suppressions" ||
		filepath.Base(res.Findings[0].Pos.Filename) != "stale.go" || res.Findings[0].Pos.Line != 6 {
		t.Errorf("-json findings = %+v, want one \"suppressions\" finding at stale.go:6", res.Findings)
	}
}

// TestListFlag pins the -list output: every analyzer appears with its
// directive and a one-line summary.
func TestListFlag(t *testing.T) {
	out := captureStdout(t, func() {
		if code := run([]string{"-list"}); code != 0 {
			t.Fatalf("pegasus-lint -list exited %d", code)
		}
	})
	for _, a := range lint.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output is missing analyzer %q:\n%s", a.Name, out)
		}
		if !strings.Contains(out, "//lint:"+a.DirectiveName()) {
			t.Errorf("-list output is missing directive for %q", a.Name)
		}
	}
}

func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 0, 4096)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out
}
