// Package obsguard is a repository-local vet pass enforcing the
// observability layer's zero-cost contract.
//
// A nil *obs.Tracer and a nil *obs.Metrics are valid no-op sinks: Emit,
// Add and Set all check their receiver and return. That makes the call
// itself safe — but not free. Every emission site builds its argument
// first (an obs.Event literal, a formatted name, float conversions),
// and on hot paths that construction happens even when observability is
// off. The repository's invariant is therefore that every Emit/Add/Set
// call site in the engine packages is dominated by a nil check of its
// receiver, so uninstrumented runs pay one branch and nothing else.
//
// obsguard parses and type-checks a package (stdlib go/types with the
// source importer — no external dependencies) and reports every call to
// a guarded emission method — (*obs.Tracer).Emit, (*obs.Metrics).Add/
// Set/Observe/EndSpan, (*obs.Hist).Observe/Merge, (*obs.Counter).Add/
// Inc — that is not visibly guarded. A call is guarded when either:
//
//   - an enclosing if (or else-branch) establishes the receiver is
//     non-nil: `if x != nil { ... x.Emit(e) ... }`, conjunctions
//     included, or the equivalent `x.Enabled()` form; or
//   - an earlier statement in an enclosing block bails out on nil:
//     `if x == nil { return }`.
//
// The receiver is matched textually (types.ExprString), so the guard
// must test the same expression the call uses — guarding `e.opts.Trace`
// does not license a call on a copy taken before the guard. A call site
// can opt out with an `//obsguard:ignore` comment on its line or the
// line above (for sites where construction is provably cold).
package obsguard

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// obsPath is the import path of the observability package whose
// receivers are checked.
const obsPath = "superpin/internal/obs"

// guardedMethods maps checked type names (within obsPath) to the method
// names whose call sites must be nil-guarded.
var guardedMethods = map[string][]string{
	"Tracer":  {"Emit"},
	"Metrics": {"Add", "Set", "Observe", "EndSpan"},
	"Hist":    {"Observe", "Merge"},
	"Counter": {"Add", "Inc"},
}

// Finding is one unguarded emission site.
type Finding struct {
	Pos token.Position
	// Recv is the receiver expression text, e.g. "k.cfg.Trace".
	Recv string
	// Call is the method name, e.g. "Emit".
	Call string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s.%s called without a %q nil guard (obs zero-cost invariant)",
		f.Pos, f.Recv, f.Call, f.Recv+" != nil")
}

// Checker runs the analysis over package directories, sharing one file
// set and one source importer between them, so the standard library and
// every package the targets import are type-checked once per Checker
// instead of once per directory. A Checker is not safe for concurrent
// use.
type Checker struct {
	fset *token.FileSet
	imp  types.Importer
}

// NewChecker returns a Checker with an empty import cache.
func NewChecker() *Checker {
	fset := token.NewFileSet()
	return &Checker{fset: fset, imp: importer.ForCompiler(fset, "source", nil)}
}

// CheckDir runs the analysis over the non-test Go files of one package
// directory with a fresh Checker. Type-checking errors in the target
// package are tolerated (the analysis runs on whatever resolved); a
// missing obs import means there is nothing to check and no findings.
func CheckDir(dir string) ([]Finding, error) { return NewChecker().CheckDir(dir) }

// CheckDir runs the analysis over the non-test Go files of one package
// directory, reusing the packages c has already imported.
func (c *Checker) CheckDir(dir string) ([]Finding, error) {
	pkgs, err := parser.ParseDir(c.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		var files []*ast.File
		names := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			names = append(names, name)
		}
		sort.Strings(names) // deterministic type-check order
		for _, name := range names {
			files = append(files, pkg.Files[name])
		}
		fs, err := c.checkFiles(pkg.Name, files)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return findings, nil
}

func (c *Checker) checkFiles(pkgName string, files []*ast.File) ([]Finding, error) {
	fset := c.fset
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{
		Importer: c.imp,
		// The target package may reference build-tagged or generated
		// identifiers we did not load; keep going and analyze whatever
		// typed expressions resolved.
		Error: func(error) {},
	}
	_, _ = conf.Check(pkgName, fset, files, info)

	var findings []Finding
	for _, file := range files {
		ignored := ignoreLines(fset, file)
		v := &visitor{fset: fset, info: info, ignored: ignored}
		ast.Walk(v, file)
		findings = append(findings, v.findings...)
	}
	return findings, nil
}

// ignoreLines collects the line numbers suppressed by obsguard:ignore
// comments (the comment's own line and the one after it, so both
// same-line and line-above placements work).
func ignoreLines(fset *token.FileSet, file *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "obsguard:ignore") {
				ln := fset.Position(c.Pos()).Line
				lines[ln] = true
				lines[ln+1] = true
			}
		}
	}
	return lines
}

// visitor walks one file keeping the ancestor stack, so each call site
// can search its enclosing ifs and blocks for a guard.
type visitor struct {
	fset     *token.FileSet
	info     *types.Info
	ignored  map[int]bool
	stack    []ast.Node
	findings []Finding
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		v.stack = v.stack[:len(v.stack)-1]
		return nil
	}
	if call, ok := n.(*ast.CallExpr); ok {
		v.checkCall(call)
	}
	v.stack = append(v.stack, n)
	return v
}

func (v *visitor) checkCall(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tname, ok := obsReceiver(v.info, sel.X)
	if !ok {
		return
	}
	matched := false
	for _, m := range guardedMethods[tname] {
		if sel.Sel.Name == m {
			matched = true
		}
	}
	if !matched {
		return
	}
	pos := v.fset.Position(call.Pos())
	if v.ignored[pos.Line] {
		return
	}
	recv := types.ExprString(sel.X)
	if v.guarded(recv, call) {
		return
	}
	v.findings = append(v.findings, Finding{Pos: pos, Recv: recv, Call: sel.Sel.Name})
}

// obsReceiver reports whether expr's static type is a pointer to one of
// the checked obs types, returning the type's name.
func obsReceiver(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return "", false
	}
	ptr, ok := tv.Type.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != obsPath {
		return "", false
	}
	_, checked := guardedMethods[obj.Name()]
	return obj.Name(), checked
}

// guarded reports whether the call is dominated by a nil check of recv.
func (v *visitor) guarded(recv string, call *ast.CallExpr) bool {
	for i := len(v.stack) - 1; i >= 0; i-- {
		switch n := v.stack[i].(type) {
		case *ast.IfStmt:
			if within(n.Body, call) && condAssertsNonNil(n.Cond, recv) {
				return true
			}
			if n.Else != nil && within(n.Else, call) && condAssertsNil(n.Cond, recv) {
				return true
			}
		case *ast.BlockStmt:
			if blockBailsOutBefore(n, call, recv) {
				return true
			}
		}
	}
	return false
}

// within reports whether node pos-encloses x.
func within(node ast.Node, x ast.Node) bool {
	return node != nil && node.Pos() <= x.Pos() && x.End() <= node.End()
}

// condAssertsNonNil: the condition being true implies recv != nil.
// Handles `recv != nil`, `recv.Enabled()`, parens, and conjunctions.
func condAssertsNonNil(cond ast.Expr, recv string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condAssertsNonNil(c.X, recv)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return condAssertsNonNil(c.X, recv) || condAssertsNonNil(c.Y, recv)
		case token.NEQ:
			return isNilCompare(c, recv)
		}
	case *ast.CallExpr:
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Enabled" && types.ExprString(sel.X) == recv
		}
	}
	return false
}

// condAssertsNil: the condition being false implies recv != nil.
// Handles `recv == nil`, parens, and disjunctions.
func condAssertsNil(cond ast.Expr, recv string) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condAssertsNil(c.X, recv)
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LOR:
			return condAssertsNil(c.X, recv) || condAssertsNil(c.Y, recv)
		case token.EQL:
			return isNilCompare(c, recv)
		}
	}
	return false
}

// isNilCompare reports whether b compares recv against nil (either
// operand order).
func isNilCompare(b *ast.BinaryExpr, recv string) bool {
	return (types.ExprString(b.X) == recv && isNil(b.Y)) ||
		(types.ExprString(b.Y) == recv && isNil(b.X))
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// blockBailsOutBefore reports whether block contains, before the call,
// an `if recv == nil { <terminating> }` statement — the early-return
// guard idiom.
func blockBailsOutBefore(block *ast.BlockStmt, call *ast.CallExpr, recv string) bool {
	for _, stmt := range block.List {
		if stmt.End() >= call.Pos() {
			return false
		}
		ifs, ok := stmt.(*ast.IfStmt)
		if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
			continue
		}
		if condAssertsNil(ifs.Cond, recv) && terminates(ifs.Body.List[len(ifs.Body.List)-1]) {
			return true
		}
	}
	return false
}

// terminates reports whether stmt unconditionally leaves the enclosing
// block (the guard body really bails out).
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}
