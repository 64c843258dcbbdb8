// Package lockio defines an analyzer enforcing the locking protocol
// from docs/durability.md: the critical short-hold locks — the
// engine's commitMu (LSN/commit-timestamp ordering), the engine's
// catalog lock, and the WAL's staging mutex — are held for memory
// operations only, never across I/O or a durability wait. Holding one
// across an fsync turns every committer and every table lookup into a
// convoy behind the disk (the CreateTable-holding-the-catalog-lock bug
// from the PR 6 review, mechanized).
//
// The server's session-table lock (server.Server.mu) is critical for
// the same reason with a different disk: it must never be held across
// network I/O — a slow client mid-write would stall every accept,
// registration, and session count behind that one peer's socket.
//
// For every Lock()→Unlock() span of a critical lock the analyzer walks
// the statements in between — following calls through the enclosing
// package's static call graph — and reports any reachable I/O: wal.FS /
// wal.File operations (Write, Sync, SyncDir, Create, Rename, ...), the
// blocking wal.Log surface (Append, WaitAcked, WaitDurable, Sync,
// Close, TruncateBelow), socket I/O through net / bufio receivers
// (Read, Write, Flush, Close, Accept, ...), and the internal/wire frame
// codec (WriteFrame, ReadFrame). wal.Log.Enqueue is exempt by design:
// staging under commitMu is the group-commit protocol. The WAL's writer
// mutex (wmu) is likewise not a critical lock — serializing the
// flusher's own writes is its purpose.
//
// Deliberate exceptions (e.g. the SyncEach convoy baseline) are
// annotated //oadb:allow-lockio <reason>.
package lockio

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the lockio pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc:  "report I/O or durability waits reachable while a critical short-hold lock (commitMu, catalog lock, WAL staging mutex) is held",
	Run:  run,
}

// criticalLock describes one protected mutex field.
type criticalLock struct {
	pkgSuffix string // package of the struct that owns the field
	typeName  string // struct type name
	fieldName string // mutex field name
	why       string // what the lock protects, for diagnostics
}

var criticalLocks = []criticalLock{
	{"internal/core", "Engine", "commitMu", "commit/LSN ordering lock"},
	{"internal/core", "Engine", "mu", "catalog lock"},
	{"internal/wal", "Log", "mu", "WAL staging lock"},
	{"internal/server", "Server", "mu", "session-table lock"},
}

// ioMethods are method names that perform I/O or block on durability
// when invoked on a type declared in internal/wal. Enqueue is absent by
// design (memory-only staging).
var ioMethods = map[string]bool{
	"Write": true, "Sync": true, "SyncDir": true, "Close": true,
	"Create": true, "Open": true, "Remove": true, "Rename": true,
	"Truncate": true, "MkdirAll": true, "ReadDir": true,
	"Append": true, "WaitAcked": true, "WaitDurable": true,
	"TruncateBelow": true, "Checkpoint": true,
}

// ioFuncs are package-level internal/wal functions that perform I/O.
var ioFuncs = map[string]bool{
	"ReadSegments": true, "ReplayDir": true, "OpenLog": true,
}

// netIOMethods are method names that perform socket I/O (or block on a
// peer) when invoked on a net or bufio receiver.
var netIOMethods = map[string]bool{
	"Read": true, "Write": true, "Flush": true, "Close": true,
	"Accept": true, "ReadByte": true, "WriteByte": true,
	"ReadString": true, "ReadBytes": true, "WriteString": true,
	"ReadFrom": true, "WriteTo": true, "Peek": true,
}

// wireFuncs are package-level internal/wire functions that perform
// frame I/O on the stream they are handed.
var wireFuncs = map[string]bool{
	"WriteFrame": true, "ReadFrame": true,
}

func run(pass *analysis.Pass) error {
	w := &walker{
		pass:      pass,
		funcs:     make(map[*types.Func]*ast.BlockStmt),
		sinkCache: make(map[*types.Func]string),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					w.funcs[fn] = fd.Body
				}
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.walkStmts(fd.Body.List, make(map[string]criticalLock))
			}
		}
	}
	return nil
}

type walker struct {
	pass  *analysis.Pass
	funcs map[*types.Func]*ast.BlockStmt
	// sinkCache memoizes, per same-package function, a description of
	// the first I/O sink its body reaches ("" for none).
	sinkCache map[*types.Func]string
	inFlight  []*types.Func
}

// lockOp classifies stmt as a Lock/Unlock on a critical lock,
// returning its syntactic key ("e.commitMu") and config entry.
func (w *walker) lockOp(call *ast.CallExpr) (key string, lk criticalLock, isLock, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "RLock" && op != "Unlock" && op != "RUnlock" {
		return
	}
	field, okField := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okField {
		return
	}
	tv, okType := w.pass.TypesInfo.Types[field.X]
	if !okType {
		return
	}
	for _, c := range criticalLocks {
		if field.Sel.Name == c.fieldName && analysis.TypeIn(tv.Type, c.pkgSuffix, c.typeName) {
			return types.ExprString(field), c, op == "Lock" || op == "RLock", true
		}
	}
	return
}

// walkStmts processes a statement sequence with the set of held
// critical locks, returning the locks released on fall-through.
func (w *walker) walkStmts(stmts []ast.Stmt, held map[string]criticalLock) map[string]bool {
	released := make(map[string]bool)
	for _, stmt := range stmts {
		w.walkStmt(stmt, held, released)
	}
	return released
}

func (w *walker) walkStmt(stmt ast.Stmt, held map[string]criticalLock, released map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, lk, isLock, ok := w.lockOp(call); ok {
				if isLock {
					held[key] = lk
				} else {
					delete(held, key)
					released[key] = true
				}
				return
			}
		}
		w.checkNode(s, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end (the
		// rest of the body is the span). Other deferred work runs at
		// return, outside any span this walk can reason about — skip.
		return
	case *ast.BlockStmt:
		sub := w.walkStmts(s.List, held)
		for k := range sub {
			released[k] = true
		}
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt, held, released)
	case *ast.IfStmt:
		if s.Init != nil {
			w.checkNode(s.Init, held)
		}
		w.checkNode(s.Cond, held)
		w.mergeBranch(s.Body.List, terminates(s.Body.List), held, released)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.mergeBranch(e.List, terminates(e.List), held, released)
		case *ast.IfStmt:
			w.walkStmt(e, held, released)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.checkNode(s.Init, held)
		}
		if s.Cond != nil {
			w.checkNode(s.Cond, held)
		}
		w.mergeBranch(s.Body.List, false, held, released)
	case *ast.RangeStmt:
		w.checkNode(s.X, held)
		w.mergeBranch(s.Body.List, false, held, released)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			if sw.Init != nil {
				w.checkNode(sw.Init, held)
			}
			if sw.Tag != nil {
				w.checkNode(sw.Tag, held)
			}
			clauses = sw.Body.List
		case *ast.TypeSwitchStmt:
			clauses = sw.Body.List
		case *ast.SelectStmt:
			clauses = sw.Body.List
		}
		for _, cl := range clauses {
			var body []ast.Stmt
			switch c := cl.(type) {
			case *ast.CaseClause:
				body = c.Body
			case *ast.CommClause:
				body = c.Body
			}
			w.mergeBranch(body, terminates(body), held, released)
		}
	default:
		w.checkNode(stmt, held)
	}
}

// mergeBranch walks a conditional branch with a copy of the held set;
// releases performed by a branch that can fall through clear the lock
// for subsequent statements (the conservative, false-positive-avoiding
// reading).
func (w *walker) mergeBranch(body []ast.Stmt, terminal bool, held map[string]criticalLock, released map[string]bool) {
	sub := w.walkStmts(body, copyHeld(held))
	if terminal {
		return
	}
	for k := range sub {
		delete(held, k)
		released[k] = true
	}
}

func copyHeld(held map[string]criticalLock) map[string]criticalLock {
	out := make(map[string]criticalLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// terminates reports whether a statement list always transfers control
// out (return, branch, panic, fatal exit).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				return name == "Exit" || name == "Fatal" || name == "Fatalf"
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

// checkNode inspects a statement or expression evaluated while locks
// are held, reporting reachable I/O. Function literals and go/defer
// bodies are skipped: they do not run at this point.
func (w *walker) checkNode(n ast.Node, held map[string]criticalLock) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if _, _, _, isLockOp := w.lockOp(node); isLockOp {
				return true
			}
			if desc, ok := w.callSink(node); ok {
				w.reportHeld(node, held, desc)
				return true
			}
			if fn := analysis.CalleeFunc(w.pass.TypesInfo, node); fn != nil {
				if body, ok := w.funcs[fn]; ok {
					if chain := w.reachesSink(fn, body); chain != "" {
						w.reportHeld(node, held, fn.Name()+" → "+chain)
					}
				}
			}
		}
		return true
	})
}

func (w *walker) reportHeld(call *ast.CallExpr, held map[string]criticalLock, sink string) {
	for key, lk := range held {
		w.pass.Reportf(call.Pos(), "%s reached while %s (%s) is held; the lock must cover memory operations only — restructure to release it before I/O or annotate //oadb:allow-lockio", sink, key, lk.why)
	}
}

// callSink reports whether call directly performs wal-layer I/O.
func (w *walker) callSink(call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if !ioMethods[fn.Name()] && !netIOMethods[fn.Name()] {
			return "", false
		}
		// The receiver's static type decides: wal.File embeds io.Writer,
		// so the method object may live in package io while the receiver
		// is unmistakably a WAL type.
		recvExpr := analysis.ReceiverExpr(call)
		if recvExpr == nil {
			return "", false
		}
		tv, ok := w.pass.TypesInfo.Types[recvExpr]
		if !ok {
			return "", false
		}
		if n, ok := analysis.NamedOf(tv.Type); ok {
			obj := n.Obj()
			if obj.Pkg() == nil {
				return "", false
			}
			pkgPath := obj.Pkg().Path()
			switch {
			case analysis.PathHasSuffix(pkgPath, "internal/wal") && ioMethods[fn.Name()]:
				return obj.Name() + "." + fn.Name(), true
			case (pkgPath == "net" || pkgPath == "bufio") && netIOMethods[fn.Name()]:
				return obj.Name() + "." + fn.Name(), true
			}
		}
		return "", false
	}
	// Package-level function.
	if fn.Pkg() != nil {
		pkgPath := fn.Pkg().Path()
		if analysis.PathHasSuffix(pkgPath, "internal/wal") && ioFuncs[fn.Name()] {
			return "wal." + fn.Name(), true
		}
		if analysis.PathHasSuffix(pkgPath, "internal/wire") && wireFuncs[fn.Name()] {
			return "wire." + fn.Name(), true
		}
	}
	return "", false
}

// reachesSink reports (memoized) a description of the first I/O sink
// reachable from fn's body through same-package calls, or "".
func (w *walker) reachesSink(fn *types.Func, body *ast.BlockStmt) string {
	if desc, ok := w.sinkCache[fn]; ok {
		return desc
	}
	for _, f := range w.inFlight {
		if f == fn {
			return "" // cycle: being computed higher in the stack
		}
	}
	w.inFlight = append(w.inFlight, fn)
	defer func() { w.inFlight = w.inFlight[:len(w.inFlight)-1] }()

	desc := ""
	ast.Inspect(body, func(node ast.Node) bool {
		if desc != "" {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if _, _, _, isLockOp := w.lockOp(node); isLockOp {
				return true
			}
			if d, ok := w.callSink(node); ok {
				desc = d
				return false
			}
			if callee := analysis.CalleeFunc(w.pass.TypesInfo, node); callee != nil && callee != fn {
				if calleeBody, ok := w.funcs[callee]; ok {
					if chain := w.reachesSink(callee, calleeBody); chain != "" {
						desc = callee.Name() + " → " + chain
						return false
					}
				}
			}
		}
		return true
	})
	w.sinkCache[fn] = desc
	return desc
}
