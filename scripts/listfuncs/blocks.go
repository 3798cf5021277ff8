package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A block is one basic block as the cover tool instruments it: a run of
// statements that starts at the head of a body (a function, an if, an else,
// a case, a loop, a function literal) or after a statement that ends a block
// (an if, for, switch or select, a nested block, a branch, a panic, or a
// statement holding a function literal), and ends at the next such
// statement. Its dominator is the block that runs before it whenever it
// runs: the block holding its construct's header, or, for a continuation,
// the block before it in the same list.
type block struct {
	start token.Pos
	guard string // the key's guard text, before any #k
	dom   *block // nil for a function's entry
	stmts []ast.Stmt
	fn    *ast.FuncType // the function (or literal) the block is in
	ran   bool
}

// blockFunc is one declared function and its blocks, entry first.
type blockFunc struct {
	symbol string
	file   string // relative to the module root
	fset   *token.FileSet
	blocks []*block
}

// listBlocks prints, one per line, every block of the merged coverage
// profile (outside bench/) that never ran although its function and its
// dominator did — so a block inside one that never ran is that one's — and
// that does not end in an error exit (endsInErrorExit). A line is
// "symbol [guard] file:line", the key being everything before the position;
// the guard gets #k on the k-th block of the function with the same text. A
// first line starting with "#" gives the counts.
func listBlocks(root, module, profile, allow string) error {
	diag, err := diagnostics(allow)
	if err != nil {
		return err
	}
	ran, err := readProfile(profile, module)
	if err != nil {
		return err
	}
	files := make([]string, 0, len(ran))
	for f := range ran {
		files = append(files, f)
	}
	sort.Strings(files)

	var never, inDeadFunc, implied, errorExit int
	var out []string
	for _, rel := range files {
		fns, err := fileBlocks(root, module, rel)
		if err != nil {
			return err
		}
		counts := ran[rel]
		matched := 0
		for _, fn := range fns {
			for _, b := range fn.blocks {
				if !b.start.IsValid() {
					continue // a package variable's initialization, which ran
				}
				at := fn.fset.Position(b.start)
				r, ok := counts[[2]int{at.Line, at.Column}]
				if ok {
					matched++
				}
				b.ran = r
			}
		}
		if matched != len(counts) {
			return fmt.Errorf("%s: %d profile blocks, %d found in the source: the block model no longer matches the cover tool", rel, len(counts), matched)
		}
		for _, fn := range fns {
			seen := map[string]int{}
			for _, b := range fn.blocks {
				key := b.guard
				if seen[b.guard]++; seen[b.guard] > 1 {
					key += "#" + strconv.Itoa(seen[b.guard])
				}
				if b.ran {
					continue
				}
				never++
				switch {
				case !fn.blocks[0].ran:
					inDeadFunc++
				case !b.dom.ran:
					implied++
				case endsInErrorExit(b, diag[pkgOf(fn.symbol)]):
					errorExit++
				default:
					out = append(out, fmt.Sprintf("%s [%s] %s:%d", fn.symbol, key, fn.file, fn.fset.Position(b.start).Line))
				}
			}
		}
	}
	fmt.Printf("# %d blocks never ran: %d in functions that never ran, %d under a block that never ran, %d end in an error exit, %d listed\n",
		never, inDeadFunc, implied, errorExit, len(out))
	for _, l := range out {
		fmt.Println(l)
	}
	return nil
}

// pkgOf returns the import path of a census symbol.
func pkgOf(symbol string) string {
	slash := strings.LastIndex(symbol, "/")
	return symbol[:slash+strings.Index(symbol[slash:], ".")]
}

// diagnostics reads the allowlist's diagnostic functions: package path ->
// the names a call may use.
func diagnostics(allow string) (map[string]map[string]bool, error) {
	data, err := os.ReadFile(allow)
	if err != nil {
		return nil, err
	}
	diag := map[string]map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[1] != "diagnostic:" {
			continue
		}
		pkg, name := pkgOf(f[0]), f[0][strings.LastIndex(f[0], ".")+1:]
		if diag[pkg] == nil {
			diag[pkg] = map[string]bool{}
		}
		diag[pkg][name] = true
	}
	return diag, nil
}

// readProfile reads a `go tool covdata textfmt` profile: for every file of
// the module outside bench/, whether each block (keyed by its start line and
// column) ran in any binary.
func readProfile(profile, module string) (map[string]map[[2]int]bool, error) {
	f, err := os.Open(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ran := map[string]map[[2]int]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		// ispn/internal/core/network.go:701.106,703.3 1 0
		fields := strings.Fields(line)
		colon := strings.LastIndex(fields[0], ":")
		if len(fields) != 3 || colon < 0 {
			return nil, fmt.Errorf("%s: malformed line %q", profile, line)
		}
		rel, ok := strings.CutPrefix(fields[0][:colon], module+"/")
		if !ok || strings.HasPrefix(rel, "bench/") {
			continue
		}
		var l, c int
		if _, err := fmt.Sscanf(fields[0][colon+1:], "%d.%d,", &l, &c); err != nil {
			return nil, fmt.Errorf("%s: malformed line %q", profile, line)
		}
		if ran[rel] == nil {
			ran[rel] = map[[2]int]bool{}
		}
		k := [2]int{l, c}
		ran[rel][k] = ran[rel][k] || fields[2] != "0"
	}
	return ran, sc.Err()
}

// fileBlocks models the blocks of every function declared in one file.
func fileBlocks(root, module, rel string) ([]*blockFunc, error) {
	src, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	pkg := module + "/" + filepath.ToSlash(filepath.Dir(rel))
	if filepath.Dir(rel) == "." {
		pkg = module
	}
	var fns []*blockFunc
	add := func(symbol string, w *blockWalker) {
		fns = append(fns, &blockFunc{symbol: symbol, file: rel, fset: fset, blocks: w.blocks})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil || d.Name.Name == "_" {
				continue
			}
			w := &blockWalker{src: src, tf: fset.File(d.Pos())}
			w.body(d.Body, d.Body.Lbrace, "", nil, d.Type)
			add(pkg+"."+receiver(d)+d.Name.Name, w)
		case *ast.GenDecl:
			// A function literal in a package variable belongs to the
			// variable, whose initialization (a block of no position,
			// always run) creates it.
			for _, spec := range d.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 || !firstFuncLit(vs).IsValid() {
					continue
				}
				w := &blockWalker{src: src, tf: fset.File(d.Pos())}
				w.blocks = []*block{{ran: true}}
				for _, v := range vs.Values {
					w.funcLits(w.blocks[0], v)
				}
				add(pkg+"."+vs.Names[0].Name, w)
			}
		}
	}
	return fns, nil
}

// blockWalker splits statement lists into blocks the way cmd/cover does.
type blockWalker struct {
	src    []byte
	tf     *token.File
	blocks []*block
}

// body models a block statement whose first block starts at pos.
func (w *blockWalker) body(b *ast.BlockStmt, pos token.Pos, guard string, dom *block, fn *ast.FuncType) {
	w.list(b.List, pos, pos+1, b.Rbrace+1, true, guard, dom, fn)
}

// list splits one statement list into blocks, as cover's addCounters does,
// and models every construct nested in it.
func (w *blockWalker) list(list []ast.Stmt, pos, insertPos, blockEnd token.Pos, extend bool, guard string, dom *block, fn *ast.FuncType) {
	if len(list) == 0 {
		w.blocks = append(w.blocks, &block{start: insertPos, guard: guard, dom: dom, fn: fn})
		return
	}
	var ender ast.Stmt
	for first := true; len(list) > 0; first = false {
		last, end := 0, blockEnd
		var next ast.Stmt
		for ; last < len(list); last++ {
			end = boundary(list[last])
			if endsBlock(list[last]) {
				next = list[last]
				last++
				extend = false
				break
			}
		}
		if extend {
			end = blockEnd
		}
		b := &block{start: pos, guard: guard, dom: dom, stmts: list[:last], fn: fn}
		if !first {
			b.guard = "after " + w.header(ender)
		}
		if pos != end { // cover gives a block with no source no counter
			w.blocks = append(w.blocks, b)
			dom = b
		}
		for _, s := range list[:last] {
			w.nested(s, dom, fn)
		}
		ender = next
		list = list[last:]
		if len(list) > 0 {
			pos = list[0].Pos()
		}
	}
}

// nested models the blocks of the constructs inside statement s, which runs
// in block dom.
func (w *blockWalker) nested(s ast.Stmt, dom *block, fn *ast.FuncType) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		w.nested(s.Stmt, dom, fn)
	case *ast.BlockStmt:
		w.body(s, s.Lbrace, "block", dom, fn)
	case *ast.IfStmt:
		w.funcLits(dom, s.Init, s.Cond)
		hdr := w.header(s)
		w.body(s.Body, s.Body.Lbrace, hdr, dom, fn)
		if s.Else == nil {
			break
		}
		// Cover starts an else, or the hidden block around an else-if,
		// right after the "else" keyword.
		at := bytes.Index(w.src[w.tf.Offset(s.Body.End()):], []byte("else"))
		pos := s.Body.End() + token.Pos(at+4)
		elseOf := "else of " + strings.TrimPrefix(hdr, "if ")
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.body(e, pos, elseOf, dom, fn)
		case *ast.IfStmt:
			w.list([]ast.Stmt{e}, pos, pos+1, e.End()+1, true, elseOf, dom, fn)
		}
	case *ast.ForStmt:
		w.funcLits(dom, s.Init, s.Cond, s.Post)
		w.body(s.Body, s.Body.Lbrace, w.header(s), dom, fn)
	case *ast.RangeStmt:
		w.funcLits(dom, s.X)
		w.body(s.Body, s.Body.Lbrace, w.header(s), dom, fn)
	case *ast.SwitchStmt:
		w.funcLits(dom, s.Init, s.Tag)
		w.clauses(s.Body, dom, fn)
	case *ast.TypeSwitchStmt:
		w.funcLits(dom, s.Init, s.Assign)
		w.clauses(s.Body, dom, fn)
	case *ast.SelectStmt:
		w.clauses(s.Body, dom, fn)
	default:
		w.funcLits(dom, s)
	}
}

// clauses models the case clauses of a switch or select body.
func (w *blockWalker) clauses(b *ast.BlockStmt, dom *block, fn *ast.FuncType) {
	for _, c := range b.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			hdr := "default"
			if c.List != nil {
				hdr = w.text(c.Case, c.Colon)
			}
			for _, e := range c.List {
				w.funcLits(dom, e)
			}
			w.list(c.Body, c.Colon+1, c.Colon+1, c.End(), false, hdr, dom, fn)
		case *ast.CommClause:
			hdr := "default"
			if c.Comm != nil {
				hdr = w.text(c.Case, c.Colon)
				w.funcLits(dom, c.Comm)
			}
			w.list(c.Body, c.Colon+1, c.Colon+1, c.End(), false, hdr, dom, fn)
		}
	}
}

// funcLits models the function literals in nodes (not those inside them),
// each created in block dom.
func (w *blockWalker) funcLits(dom *block, nodes ...ast.Node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if ok {
				w.body(lit.Body, lit.Body.Lbrace, w.text(lit.Pos(), lit.Body.Lbrace), dom, lit.Type)
			}
			return !ok
		})
	}
}

// boundary is where the block holding s ends, as cover's statementBoundary
// has it: at the first function literal in a control statement's header, or
// in any other statement, else at a control statement's body.
func boundary(s ast.Stmt) token.Pos {
	var head []ast.Node
	var body *ast.BlockStmt
	switch s := s.(type) {
	case *ast.BlockStmt:
		return s.Lbrace
	case *ast.LabeledStmt:
		return boundary(s.Stmt)
	case *ast.SelectStmt:
		return s.Body.Lbrace
	case *ast.IfStmt:
		head, body = []ast.Node{s.Init, s.Cond}, s.Body
	case *ast.ForStmt:
		head, body = []ast.Node{s.Init, s.Cond, s.Post}, s.Body
	case *ast.RangeStmt:
		head, body = []ast.Node{s.X}, s.Body
	case *ast.SwitchStmt:
		head, body = []ast.Node{s.Init, s.Tag}, s.Body
	case *ast.TypeSwitchStmt:
		head, body = []ast.Node{s.Init}, s.Body
	default:
		head = []ast.Node{s}
	}
	for _, n := range head {
		if at := firstFuncLit(n); at.IsValid() {
			return at
		}
	}
	if body == nil {
		return s.End()
	}
	return body.Lbrace
}

// firstFuncLit returns the body of the first function literal in n, or
// NoPos.
func firstFuncLit(n ast.Node) token.Pos {
	if n == nil {
		return token.NoPos
	}
	var at token.Pos
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && !at.IsValid() {
			at = lit.Body.Lbrace
		}
		return !at.IsValid()
	})
	return at
}

// endsBlock reports whether s ends a block, as cover's endsBasicSourceBlock
// has it.
func endsBlock(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BlockStmt, *ast.BranchStmt, *ast.ForStmt, *ast.IfStmt, *ast.LabeledStmt,
		*ast.RangeStmt, *ast.SwitchStmt, *ast.SelectStmt, *ast.TypeSwitchStmt:
		return true
	case *ast.ExprStmt:
		if isPanic(s) {
			return true
		}
	}
	return firstFuncLit(s).IsValid()
}

func isPanic(s ast.Stmt) bool {
	call := callOf(s)
	if call == nil {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic" && len(call.Args) == 1
}

// header is the text a statement that ends a block is known by: a control
// statement up to its body, anything else up to its first function literal.
func (w *blockWalker) header(s ast.Stmt) string {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return "block"
	case *ast.LabeledStmt:
		return s.Label.Name + ": " + w.header(s.Stmt)
	case *ast.IfStmt:
		return w.text(s.Pos(), s.Body.Lbrace)
	case *ast.ForStmt:
		return w.text(s.Pos(), s.Body.Lbrace)
	case *ast.RangeStmt:
		return w.text(s.Pos(), s.Body.Lbrace)
	case *ast.SwitchStmt:
		return w.text(s.Pos(), s.Body.Lbrace)
	case *ast.TypeSwitchStmt:
		return w.text(s.Pos(), s.Body.Lbrace)
	case *ast.SelectStmt:
		return "select"
	}
	if at := firstFuncLit(s); at.IsValid() {
		return w.text(s.Pos(), at)
	}
	return w.text(s.Pos(), s.End())
}

// text returns the source in [from, to), whitespace-normalized.
func (w *blockWalker) text(from, to token.Pos) string {
	return strings.Join(strings.Fields(string(w.src[w.tf.Offset(from):w.tf.Offset(to)])), " ")
}

// endsInErrorExit reports whether block b leaves by a panic, a return of a
// non-nil error, an exit with a non-zero status, or a call to one of diag
// (which a return or branch may follow).
func endsInErrorExit(b *block, diag map[string]bool) bool {
	n := len(b.stmts)
	if n == 0 {
		return false
	}
	last := b.stmts[n-1]
	if isPanic(last) || isErrorReturn(last, b.fn) || isErrorExit(last) {
		return true
	}
	switch last.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return n > 1 && isDiagnosticCall(b.stmts[n-2], diag)
	}
	return isDiagnosticCall(last, diag)
}

// isErrorExit reports whether s is os.Exit with a status other than 0.
func isErrorExit(s ast.Stmt) bool {
	call := callOf(s)
	if call == nil || len(call.Args) != 1 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Exit" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	status, lit := call.Args[0].(*ast.BasicLit)
	return ok && pkg.Name == "os" && (!lit || status.Value != "0")
}

// callOf returns the call s makes as an expression statement, or nil.
func callOf(s ast.Stmt) *ast.CallExpr {
	e, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, _ := e.X.(*ast.CallExpr)
	return call
}

// isErrorReturn reports whether s returns a non-nil value as the last
// result of a function whose last result is an error.
func isErrorReturn(s ast.Stmt, fn *ast.FuncType) bool {
	r, ok := s.(*ast.ReturnStmt)
	if !ok || len(r.Results) == 0 || fn.Results == nil || len(fn.Results.List) == 0 {
		return false
	}
	t, ok := fn.Results.List[len(fn.Results.List)-1].Type.(*ast.Ident)
	if !ok || t.Name != "error" {
		return false
	}
	id, ok := r.Results[len(r.Results)-1].(*ast.Ident)
	return !ok || id.Name != "nil"
}

// isDiagnosticCall reports whether s calls one of diag, as f(...) or
// x.f(...), alone or as the value it assigns.
func isDiagnosticCall(s ast.Stmt, diag map[string]bool) bool {
	call := callOf(s)
	if a, ok := s.(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
		call, _ = a.Rhs[0].(*ast.CallExpr)
	}
	if call == nil {
		return false
	}
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return diag[f.Name]
	case *ast.SelectorExpr:
		return diag[f.Sel.Name]
	}
	return false
}
