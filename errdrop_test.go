package squall

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// droppable names the methods whose error a statement may not drop
// silently.
var droppable = map[string]bool{
	"Close": true, "Write": true, "WriteAt": true, "ReadAt": true,
	"Sync": true, "Flush": true, "Commit": true,
}

// TestDiscardedErrorsCarryReasons parses every non-test Go file of the
// module outside bench/ and lists each statement that drops the result
// of a Close, Write, WriteAt, ReadAt, Sync, Flush or Commit call: an
// assignment of it to blanks only, or the call as a bare, deferred or
// go statement. Each must say why dropping is right in a
// `// drop: <reason>` comment on its line or the line above; a new one
// without a reason fails. It matches on method names, not types, so a
// method of that name that returns no error needs the comment too.
func TestDiscardedErrorsCarryReasons(t *testing.T) {
	fset := token.NewFileSet()
	sites := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		reasons := dropReasons(fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok && dropsError(s) {
				sites++
				if line := fset.Position(s.Pos()).Line; !reasons[line] && !reasons[line-1] {
					t.Errorf("%s: drops the error of a call without a `// drop: <reason>` comment", fset.Position(s.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sites == 0 {
		t.Fatal("found no discarded error at all; the scan is broken")
	}
}

// dropsError reports whether s drops the result of a droppable call.
func dropsError(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
				return false
			}
		}
		return len(s.Rhs) == 1 && droppableCall(s.Rhs[0])
	case *ast.ExprStmt:
		return droppableCall(s.X)
	case *ast.DeferStmt:
		return droppableCall(s.Call)
	case *ast.GoStmt:
		return droppableCall(s.Call)
	}
	return false
}

// droppableCall reports whether e calls a method droppable names.
func droppableCall(e ast.Expr) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	return ok && droppable[sel.Sel.Name]
}

// dropReasons returns the lines of f that a `// drop: <reason>` comment
// with a non-empty reason ends on.
func dropReasons(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, g := range f.Comments {
		for _, c := range g.List {
			reason, ok := strings.CutPrefix(c.Text, "// drop:")
			if ok && strings.TrimSpace(reason) != "" {
				lines[fset.Position(c.End()).Line] = true
			}
		}
	}
	return lines
}
