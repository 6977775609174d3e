package morphstream_test

import (
	"go/build"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// module is this repository's module path; a package's directory is its
// import path with the module prefix swapped for the repository root.
const module = "morphstream"

// measurementOnly are the packages that exist to measure or demonstrate the
// engine: the paper-experiment harness, the comparison baselines, the
// workload generators and the two case studies.
var measurementOnly = []string{
	module + "/internal/harness",
	module + "/internal/baseline",
	module + "/internal/workload",
	module + "/internal/osed",
	module + "/internal/sea",
}

func isMeasurementOnly(path string) bool {
	for _, p := range measurementOnly {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// moduleImports lists the non-test imports of the package at import path
// inside this module.
func moduleImports(t *testing.T, path string) []string {
	t.Helper()
	dir := "." + strings.TrimPrefix(path, module)
	pkg, err := build.ImportDir(dir, 0)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var out []string
	for _, imp := range pkg.Imports {
		if imp == module || strings.HasPrefix(imp, module+"/") {
			out = append(out, imp)
		}
	}
	return out
}

// TestImportBoundaries keeps what ships apart from what measures it. The
// public API, the RPC client and the server binary — with every package they
// reach — must not import the harness, the baselines, the workload
// generators or the case studies; and the baselines and case studies are
// imported only by the harness, by each other's own subpackages, and by the
// examples (benchmarks are test files and do not count).
func TestImportBoundaries(t *testing.T) {
	queue := []string{module, module + "/client", module + "/cmd/morphserve"}
	seen := map[string]bool{}
	for _, root := range queue {
		seen[root] = true
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		for _, imp := range moduleImports(t, path) {
			if isMeasurementOnly(imp) {
				t.Errorf("%s imports %s: shipped code must not depend on measurement packages", path, imp)
			}
			if !seen[imp] {
				seen[imp] = true
				queue = append(queue, imp)
			}
		}
	}

	for _, path := range modulePackages(t) {
		if path == module+"/internal/harness" || strings.HasPrefix(path, module+"/examples/") {
			continue
		}
		for _, imp := range moduleImports(t, path) {
			caseStudyOrBaseline := imp == module+"/internal/osed" || imp == module+"/internal/sea" ||
				imp == module+"/internal/baseline" || strings.HasPrefix(imp, module+"/internal/baseline/")
			ownSubpackage := strings.HasPrefix(path, module+"/internal/baseline/") && imp == module+"/internal/baseline"
			if caseStudyOrBaseline && !ownSubpackage {
				t.Errorf("%s imports %s: only the harness and the examples may", path, imp)
			}
		}
	}
}

// modulePackages lists the import paths of the main module's packages that
// have non-test Go files. benchmark/ is a module of its own and is left out.
func modulePackages(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if dir != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(dir, 0); err != nil {
			return nil // no non-test Go files here
		}
		path := module
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		out = append(out, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
