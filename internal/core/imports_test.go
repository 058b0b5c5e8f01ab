package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestEngineImportsNoStaticAnalysis fails if a non-test file of the
// engine packages imports internal/sa. No run of any mode analyzes the
// image: the static analysis serves `spasm -lint` and the repository
// benchmark only.
func TestEngineImportsNoStaticAnalysis(t *testing.T) {
	const sa = "superpin/internal/sa"
	fset := token.NewFileSet()
	for _, dir := range []string{"../pin", "../jit", ".", "../artifact", "../mem"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == sa {
					t.Errorf("%s imports %s", file, sa)
				}
			}
		}
	}
}
