// Package load type-checks Go packages for pegasus-lint using only the
// standard toolchain: `go list -export -deps` supplies compiler export data
// for every dependency (stdlib included, fully offline), and go/importer's
// gc importer consumes it, so analyzers always see complete types.Info. It
// is the stand-in for golang.org/x/tools/go/packages, which the build
// image cannot fetch. LoadConfig is the lint driver's loader: one go list
// run per invocation, source-parsed and type-checked target packages. The
// analysistest fixture runner reuses GoList and ExportImporter.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// ListPackage is the subset of `go list -json` output the loader consumes.
type ListPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Standard   bool
	ForTest    string // set on test variants: the import path under test
}

// listFields is the -json field list matching ListPackage.
const listFields = "ImportPath,Name,Dir,Export,GoFiles,ImportMap,DepOnly,Standard,ForTest"

// Package is one fully type-checked package ready for analysis.
type Package struct {
	Path  string
	Name  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// GoList runs `go list -json` in dir with the given extra arguments and
// decodes the JSON stream.
func GoList(dir string, args ...string) ([]ListPackage, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var pkgs []ListPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListPackage
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", args, derr)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that reads gc export data files.
// exports maps an import path to its export data file; importMap (may be
// nil) applies source-level import path remapping (vendoring, test
// variants) before the lookup.
func ExportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if importMap != nil {
			if real, ok := importMap[path]; ok {
				path = real
			}
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// checkFiles parses and type-checks the named files as one package with
// import path path, resolving imports through exports/importMap.
func checkFiles(fset *token.FileSet, path string, filenames []string, exports, importMap map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: ExportImporter(fset, exports, importMap),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	name := ""
	if len(files) > 0 {
		name = files[0].Name.Name
	}
	return &Package{Path: path, Name: name, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Config controls package loading.
type Config struct {
	// Dir is the working directory for `go list` (defaults to ".").
	Dir string
}

// LoadConfig type-checks the packages matching patterns according to cfg,
// test variants included so _test.go files are analyzed too. Where a test
// variant exists ("pkg [pkg.test]"), it replaces the plain package — the
// variant's GoFiles are a superset, so analyzing both would duplicate
// every non-test diagnostic. Variant paths are normalized: "pkg
// [pkg.test]" loads as "pkg", and external test packages keep their
// "pkg_test" path (scoped analyzers trim the suffix). Generated "pkg.test"
// mains are skipped.
func LoadConfig(cfg Config, patterns ...string) ([]*Package, error) {
	dir := cfg.Dir
	if dir == "" {
		dir = "."
	}
	args := append([]string{"-e=false", "-export", "-deps", "-test", "-json=" + listFields, "--"}, patterns...)
	listed, err := GoList(dir, args...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	superseded := map[string]bool{} // plain paths replaced by a test variant
	var targets []ListPackage
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || p.Name == "" {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") && p.Name == "main" {
			continue // generated test binary main
		}
		if p.ForTest != "" {
			p.ImportPath, _, _ = strings.Cut(p.ImportPath, " [")
			if p.ImportPath == p.ForTest {
				superseded[p.ForTest] = true
			}
		}
		targets = append(targets, p)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		if t.ForTest == "" && superseded[t.ImportPath] {
			continue
		}
		var filenames []string
		for _, name := range t.GoFiles {
			filenames = append(filenames, filepath.Join(t.Dir, name))
		}
		pkg, err := checkFiles(fset, t.ImportPath, filenames, exports, t.ImportMap)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
