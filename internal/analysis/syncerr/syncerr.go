// Package syncerr defines an analyzer enforcing the durability
// invariant that fsync-class errors are never discarded.
//
// An ignored error from Sync, SyncDir, Close, or Flush on a
// durability-relevant type is a silent-data-loss bug: the write path
// reported that bytes may not have reached disk and the caller carried
// on as if they had (exactly the dropped-SyncDir class of bug found in
// the PR 6 review). This is a focused errcheck: it looks only at those
// four method names, and only where durability is at stake —
//
//   - everywhere inside the durability-owning packages (path suffix
//     internal/wal, internal/core, or db), whatever the receiver; and
//   - in any package, when the receiver is a type declared in
//     internal/wal (File, FS, Log, ...), core.Engine, or db.DB.
//
// A call discards the error when it appears as a bare statement, under
// defer or go, or with the error result assigned to the blank
// identifier. Suppress a deliberate best-effort discard with
// //oadb:allow-syncerr <reason>.
package syncerr

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the syncerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "syncerr",
	Doc:  "report discarded errors from Sync/SyncDir/Close/Flush on durability-relevant types",
	Run:  run,
}

// methodNames are the durability-critical method names.
var methodNames = map[string]bool{
	"Close":   true,
	"Sync":    true,
	"SyncDir": true,
	"Flush":   true,
}

// wholesalePkgs are package-path suffixes inside which every discarded
// call to a critical method name is flagged, whatever the receiver:
// these packages own the durability machinery.
var wholesalePkgs = []string{"internal/wal", "internal/core", "db"}

func run(pass *analysis.Pass) error {
	wholesale := false
	for _, suffix := range wholesalePkgs {
		if analysis.PathHasSuffix(pass.Pkg.Path(), suffix) {
			wholesale = true
			break
		}
	}
	check := func(call *ast.CallExpr, how string) {
		if name, ok := criticalCall(pass, call, wholesale); ok {
			pass.Reportf(call.Pos(), "error from %s is discarded (%s); a dropped %s error is silent data loss — handle it or annotate //oadb:allow-syncerr", name, how, name)
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					check(call, "call result unused")
				}
			case *ast.DeferStmt:
				check(stmt.Call, "deferred without checking the error")
			case *ast.GoStmt:
				check(stmt.Call, "spawned without checking the error")
			case *ast.AssignStmt:
				checkAssign(pass, stmt, check)
			}
			return true
		})
	}
	return nil
}

// checkAssign flags critical calls whose error result lands in the
// blank identifier.
func checkAssign(pass *analysis.Pass, stmt *ast.AssignStmt, check func(*ast.CallExpr, string)) {
	// Tuple form: a, err := f() — one call, many LHS.
	if len(stmt.Rhs) == 1 {
		if call, ok := stmt.Rhs[0].(*ast.CallExpr); ok {
			if len(stmt.Lhs) >= 1 && isBlank(stmt.Lhs[len(stmt.Lhs)-1]) {
				check(call, "error assigned to _")
			}
			return
		}
	}
	// Parallel form: a, b = f(), g().
	if len(stmt.Lhs) == len(stmt.Rhs) {
		for i, rhs := range stmt.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && isBlank(stmt.Lhs[i]) {
				check(call, "error assigned to _")
			}
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// criticalCall reports whether call is a durability-critical method
// call returning an error, and if so its display name.
func criticalCall(pass *analysis.Pass, call *ast.CallExpr, wholesale bool) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !methodNames[fn.Name()] {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !returnsError(sig) {
		return "", false
	}
	recvExpr := analysis.ReceiverExpr(call)
	if recvExpr == nil {
		return "", false
	}
	tv, ok := pass.TypesInfo.Types[recvExpr]
	if !ok {
		return "", false
	}
	name := recvName(tv.Type) + "." + fn.Name()
	if wholesale {
		return name, true
	}
	if typeIsDurabilityRelevant(tv.Type) {
		return name, true
	}
	return "", false
}

// typeIsDurabilityRelevant reports whether t is one of the tracked
// durable-resource types.
func typeIsDurabilityRelevant(t types.Type) bool {
	n, ok := analysis.NamedOf(t)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	switch {
	case analysis.PathHasSuffix(path, "internal/wal"):
		return true
	case analysis.PathHasSuffix(path, "internal/core") && obj.Name() == "Engine":
		return true
	case analysis.PathHasSuffix(path, "db") && obj.Name() == "DB":
		return true
	}
	return false
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	n, ok := last.(*types.Named)
	return ok && n.Obj().Name() == "error" && n.Obj().Pkg() == nil
}

// recvName renders the receiver type for diagnostics.
func recvName(t types.Type) string {
	if n, ok := analysis.NamedOf(t); ok {
		return n.Obj().Name()
	}
	return t.String()
}
