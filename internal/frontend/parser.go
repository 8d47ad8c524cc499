package frontend

import (
	"fmt"
	"slices"
)

// Parser builds the AST for one SwiftLite file. It pulls tokens from the
// lexer as it needs them and keeps only a window: the current token, the one
// after it when peeked, and — while the one backtracking site holds a mark —
// everything lexed since the mark. So a parse holds O(nesting) memory, not a
// token per source byte, and a source the nesting limit rejects costs only
// what was lexed before the limit fired.
type Parser struct {
	file string
	lx   *Lexer
	toks []Token // the window; toks[pos] is the current token
	pos  int
	// marks counts the backtracking marks held; while one is, consumed
	// tokens stay in the window so the parser can return to them.
	marks int
	// lexErr is the lexer's first error. The window then ends in a
	// synthetic EOF at the error's position, so the parse stops there.
	lexErr error

	// noBraceDepth > 0 while parsing if/while/for headers, where a bare `{`
	// belongs to the statement body, not to a closure literal.
	noBraceDepth int

	// depth is the current nesting level (see maxNesting). A parse step that
	// succeeds returns it to where the step began; one that fails leaves it,
	// because a failure abandons the parse. The one backtracking site,
	// explicit type arguments, restores it with the position.
	depth int
}

// maxNesting bounds how deeply a source may nest. Blocks, if/else-if chains,
// types, expressions (so brackets) and prefix operators each count a level,
// and so does every link of a left-deep binary-operator or postfix chain
// (`1+1+…`, `a.b.c…`), whose tree is as deep as the chain is long. Every
// later pass walks that tree recursively, and an unbounded depth overflows
// the goroutine stack: a fatal error that no recover sees, so one such source
// would take a whole compile daemon down. The deepest testdata program and
// generated corpus stays below 20 levels.
const maxNesting = 1000

// nest enters one more nesting level.
func (p *Parser) nest() error {
	if p.depth++; p.depth > maxNesting {
		return p.errf("nesting deeper than %d levels", maxNesting)
	}
	return nil
}

// ParseFile lexes and parses src. Of a lexical and a syntax error, the one
// earlier in the source is reported: the parse stops at the first lexical
// error, so any syntax error it reports before reaching it comes first.
func ParseFile(file, src string) (*File, error) {
	p := &Parser{file: file, lx: NewLexer(file, src)}
	f, err := p.parseFile()
	if p.lexErr != nil && (err == nil || p.cur().Kind == TokEOF) {
		// The parse reached the synthetic EOF (a real one cannot follow a
		// lexical error): the lexical error is the first.
		return nil, p.lexErr
	}
	return f, err
}

// fill lexes until the window holds toks[i].
func (p *Parser) fill(i int) {
	for len(p.toks) <= i {
		if n := len(p.toks); n > 0 && p.toks[n-1].Kind == TokEOF {
			p.toks = append(p.toks, p.toks[n-1])
			continue
		}
		t, err := p.lx.next()
		if err != nil {
			p.lexErr = err
			fe := err.(*Error)
			t = Token{Kind: TokEOF, Line: fe.Line, Col: fe.Col}
		}
		p.toks = append(p.toks, t)
	}
}

func (p *Parser) cur() Token {
	if p.pos >= len(p.toks) {
		p.fill(p.pos)
	}
	return p.toks[p.pos]
}

// peek returns the token n places after the current one.
func (p *Parser) peek(n int) Token {
	if p.pos+n >= len(p.toks) {
		p.fill(p.pos + n)
	}
	return p.toks[p.pos+n]
}

func (p *Parser) at(k TokKind) bool { return p.cur().Kind == k }

func (p *Parser) advance() Token {
	t := p.cur()
	if t.Kind == TokEOF {
		return t
	}
	p.pos++
	if p.pos == len(p.toks) && p.marks == 0 {
		// Every token of the window is consumed and none can be returned
		// to: drop them.
		p.toks, p.pos = p.toks[:0], 0
	}
	return t
}

// mark records the current position for reset; release or reset ends it.
func (p *Parser) mark() (pos, depth int) {
	p.marks++
	return p.pos, p.depth
}

func (p *Parser) release() { p.marks-- }

func (p *Parser) reset(pos, depth int) {
	p.pos, p.depth = pos, depth
	p.marks--
}

func (p *Parser) accept(k TokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k TokKind) (Token, error) {
	if !p.at(k) {
		return p.cur(), p.errf("expected %q, found %s", tokNames[k], p.cur())
	}
	return p.advance(), nil
}

func (p *Parser) errf(format string, args ...any) error {
	t := p.cur()
	return &Error{File: p.file, Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for !p.at(TokEOF) {
		switch p.cur().Kind {
		case TokFunc:
			fn, err := p.parseFunc("", false)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
		case TokClass:
			cd, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			f.Classes = append(f.Classes, cd)
		default:
			return nil, p.errf("expected func or class at top level, found %s", p.cur())
		}
	}
	return f, nil
}

func (p *Parser) parseFunc(class string, isInit bool) (*FuncDecl, error) {
	fn := &FuncDecl{Class: class, IsInit: isInit, Line: p.cur().Line}
	if isInit {
		if _, err := p.expect(TokInit); err != nil {
			return nil, err
		}
		fn.Name = "init"
	} else {
		if _, err := p.expect(TokFunc); err != nil {
			return nil, err
		}
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		fn.Name = name.Text
	}
	if p.accept(TokLt) {
		for {
			g, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			fn.Generics = append(fn.Generics, g.Text)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokGt); err != nil {
			return nil, err
		}
	}
	params, err := p.parseParamList(fn.Generics)
	if err != nil {
		return nil, err
	}
	fn.Params = params
	if p.accept(TokThrows) {
		fn.Throws = true
	}
	fn.Ret = VoidType
	if p.accept(TokArrow) {
		rt, err := p.parseType(fn.Generics)
		if err != nil {
			return nil, err
		}
		fn.Ret = rt
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseParamList(generics []string) ([]Param, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var params []Param
	for !p.at(TokRParen) {
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokColon); err != nil {
			return nil, err
		}
		ty, err := p.parseType(generics)
		if err != nil {
			return nil, err
		}
		params = append(params, Param{Name: name.Text, Type: ty})
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *Parser) parseClass() (*ClassDecl, error) {
	cd := &ClassDecl{Line: p.cur().Line}
	if _, err := p.expect(TokClass); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	cd.Name = name.Text
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	for !p.at(TokRBrace) {
		switch p.cur().Kind {
		case TokVar, TokLet:
			p.advance()
			fname, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokColon); err != nil {
				return nil, err
			}
			ty, err := p.parseType(nil)
			if err != nil {
				return nil, err
			}
			cd.Fields = append(cd.Fields, FieldDecl{Name: fname.Text, Type: ty})
		case TokInit:
			if cd.Init != nil {
				return nil, p.errf("class %s has multiple initializers", cd.Name)
			}
			fn, err := p.parseFunc(cd.Name, true)
			if err != nil {
				return nil, err
			}
			cd.Init = fn
		case TokFunc:
			fn, err := p.parseFunc(cd.Name, false)
			if err != nil {
				return nil, err
			}
			cd.Methods = append(cd.Methods, fn)
		default:
			return nil, p.errf("expected field, init, or method in class %s, found %s", cd.Name, p.cur())
		}
	}
	_, err = p.expect(TokRBrace)
	return cd, err
}

func (p *Parser) parseType(generics []string) (*Type, error) {
	t, _, err := p.parseTypeTree(generics)
	return t, err
}

// parseTypeTree parses a type and returns the height of its tree. Every node
// of that tree counts a nesting level: brackets and function types nest as
// they parse, and each optional suffix wraps the type parsed so far once
// more, so it pushes everything below it one level deeper (`[[Int]?]?` is
// five levels, not three).
func (p *Parser) parseTypeTree(generics []string) (*Type, int, error) {
	if err := p.nest(); err != nil {
		return nil, 0, err
	}
	var base *Type
	height := 1
	switch {
	case p.at(TokIdent):
		name := p.advance().Text
		switch name {
		case "Int":
			base = IntType
		case "Bool":
			base = BoolType
		case "String":
			base = StringType
		case "Void":
			base = VoidType
		default:
			if contains(generics, name) {
				base = &Type{Kind: TGeneric, Name: name}
			} else {
				base = ClassType(name)
			}
		}
	case p.at(TokLBracket):
		p.advance()
		elem, h, err := p.parseTypeTree(generics)
		if err != nil {
			return nil, 0, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return nil, 0, err
		}
		base, height = ArrayType(elem), 1+h
	case p.at(TokLParen):
		p.advance()
		ft := &Type{Kind: TFunc, Ret: VoidType}
		for !p.at(TokRParen) {
			pt, h, err := p.parseTypeTree(generics)
			if err != nil {
				return nil, 0, err
			}
			ft.Params = append(ft.Params, pt)
			height = max(height, 1+h)
			if !p.accept(TokComma) {
				break
			}
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, 0, err
		}
		if p.accept(TokThrows) {
			ft.Throws = true
		}
		if _, err := p.expect(TokArrow); err != nil {
			return nil, 0, err
		}
		rt, h, err := p.parseTypeTree(generics)
		if err != nil {
			return nil, 0, err
		}
		ft.Ret = rt
		base, height = ft, max(height, 1+h)
	default:
		return nil, 0, p.errf("expected type, found %s", p.cur())
	}
	// The tree's deepest node sits height-1 levels below this one.
	for p.at(TokQuestion) {
		if height++; p.depth+height-1 > maxNesting {
			return nil, 0, p.errf("nesting deeper than %d levels", maxNesting)
		}
		p.advance()
		base = OptionalType(base)
	}
	p.depth--
	return base, height, nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// ---- Statements ----

func (p *Parser) parseBlock() (*BlockStmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated block")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, st)
	}
	_, err := p.expect(TokRBrace)
	p.depth--
	return blk, err
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case TokLet, TokVar:
		mutable := p.cur().Kind == TokVar
		line := p.advance().Line
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		var ty *Type
		if p.accept(TokColon) {
			ty, err = p.parseType(nil)
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &VarStmt{Name: name.Text, Mutable: mutable, Type: ty, Init: init, Line: line}, nil

	case TokIf:
		return p.parseIf()

	case TokWhile:
		line := p.advance().Line
		p.noBraceDepth++
		cond, err := p.parseExpr()
		p.noBraceDepth--
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: line}, nil

	case TokFor:
		line := p.advance().Line
		v, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokIn); err != nil {
			return nil, err
		}
		p.noBraceDepth++
		lo, err := p.parseExpr()
		if err != nil {
			p.noBraceDepth--
			return nil, err
		}
		if _, err := p.expect(TokRangeUpto); err != nil {
			p.noBraceDepth--
			return nil, err
		}
		hi, err := p.parseExpr()
		p.noBraceDepth--
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &ForStmt{Var: v.Text, Lo: lo, Hi: hi, Body: body, Line: line}, nil

	case TokReturn:
		line := p.advance().Line
		// A bare return is followed by a token that cannot start an
		// expression in statement position.
		if p.at(TokRBrace) || p.at(TokEOF) {
			return &ReturnStmt{Line: line}, nil
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{E: e, Line: line}, nil

	case TokThrow:
		line := p.advance().Line
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ThrowStmt{E: e, Line: line}, nil

	case TokDo:
		line := p.advance().Line
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokCatch); err != nil {
			return nil, err
		}
		catch, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		return &DoCatchStmt{Body: body, Catch: catch, Line: line}, nil

	case TokBreak:
		line := p.advance().Line
		return &BreakStmt{Line: line}, nil

	case TokContinue:
		line := p.advance().Line
		return &ContinueStmt{Line: line}, nil
	}

	// Assignment or expression statement.
	line := p.cur().Line
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokAssign) {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, Line: line}, nil
	}
	return &ExprStmt{E: lhs, Line: line}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	line := p.advance().Line // consume `if`
	var bind string
	if p.at(TokLet) {
		p.advance()
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		bind = name.Text
		if _, err := p.expect(TokAssign); err != nil {
			return nil, err
		}
	}
	p.noBraceDepth++
	cond, err := p.parseExpr()
	p.noBraceDepth--
	if err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Bind: bind, Cond: cond, Then: then, Line: line}
	if p.accept(TokElse) {
		if p.at(TokIf) {
			els, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = els
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
	}
	p.depth--
	return st, nil
}

// ---- Expressions ----

func (p *Parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	e, err := p.parseBinary(0)
	p.depth--
	return e, err
}

// binaryLevels lists the binary operators by precedence, loosest first; all
// associate to the left. A comparison takes at most one operator
// (comparisons do not chain) and counts no nesting level. Every link of
// another level's chain counts one, because the left-deep tree the chain
// builds is as deep as the chain is long.
var binaryLevels = []struct {
	ops   []TokKind
	chain bool
}{
	{[]TokKind{TokOr}, true},
	{[]TokKind{TokAnd}, true},
	{[]TokKind{TokEq, TokNe, TokLt, TokLe, TokGt, TokGe}, false},
	{[]TokKind{TokPlus, TokMinus}, true},
	{[]TokKind{TokStar, TokSlash, TokPercent}, true},
}

// parseBinary parses the operators of binaryLevels[level] and tighter.
func (p *Parser) parseBinary(level int) (Expr, error) {
	if level == len(binaryLevels) {
		return p.parseUnary()
	}
	lv := binaryLevels[level]
	l, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	d := p.depth
	for slices.Contains(lv.ops, p.cur().Kind) {
		if lv.chain {
			if err := p.nest(); err != nil {
				return nil, err
			}
		}
		op := p.cur().Kind
		line := p.advance().Line
		r, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r, Line: line}
		if !lv.chain {
			break
		}
	}
	p.depth = d
	return l, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case TokMinus, TokNot:
		if err := p.nest(); err != nil {
			return nil, err
		}
		op := p.cur().Kind
		line := p.advance().Line
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		return &UnaryExpr{Op: op, X: x, Line: line}, nil
	case TokTry:
		if err := p.nest(); err != nil {
			return nil, err
		}
		p.advance()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		p.depth--
		switch call := x.(type) {
		case *CallExpr:
			call.Try = true
		case *MethodCallExpr:
			call.Try = true
		default:
			return nil, p.errf("try must precede a call")
		}
		return x, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	d := p.depth
	for p.at(TokLParen) || p.at(TokLBracket) || p.at(TokDot) {
		if err := p.nest(); err != nil {
			return nil, err
		}
		switch p.cur().Kind {
		case TokLParen:
			line := p.cur().Line
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			e = &CallExpr{Fn: e, Args: args, Line: line}
		case TokLBracket:
			line := p.advance().Line
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokRBracket); err != nil {
				return nil, err
			}
			e = &IndexExpr{Recv: e, Index: idx, Line: line}
		case TokDot:
			p.advance()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			if p.at(TokLParen) {
				line := p.cur().Line
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				e = &MethodCallExpr{Recv: e, Method: name.Text, Args: args, Line: line}
			} else {
				e = &FieldExpr{Recv: e, Field: name.Text, Line: name.Line}
			}
		}
	}
	p.depth = d
	return e, nil
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	var args []Expr
	saveNoBrace := p.noBraceDepth
	p.noBraceDepth = 0 // closures are fine inside parentheses
	defer func() { p.noBraceDepth = saveNoBrace }()
	for !p.at(TokRParen) {
		// Optional argument label: `ident:` followed by an expression.
		if p.at(TokIdent) && p.peek(1).Kind == TokColon {
			p.advance()
			p.advance()
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokInt:
		p.advance()
		return &IntLit{Value: t.Int, Line: t.Line}, nil
	case TokTrue, TokFalse:
		p.advance()
		return &BoolLit{Value: t.Kind == TokTrue, Line: t.Line}, nil
	case TokString:
		p.advance()
		return &StringLit{Value: t.Text, Line: t.Line}, nil
	case TokNil:
		p.advance()
		return &NilLit{Line: t.Line}, nil
	case TokSelf:
		p.advance()
		return &SelfExpr{Line: t.Line}, nil
	case TokIdent:
		p.advance()
		e := &IdentExpr{Name: t.Text, Line: t.Line}
		// Explicit generic instantiation: ident<T, U>(...). Backtrack if the
		// angle bracket turns out to be a comparison.
		if p.at(TokLt) {
			pos, depth := p.mark()
			if typeArgs, ok := p.tryTypeArgs(); ok && p.at(TokLParen) {
				p.release()
				args, err := p.parseArgs()
				if err != nil {
					return nil, err
				}
				return &CallExpr{Fn: e, TypeArgs: typeArgs, Args: args, Line: t.Line}, nil
			}
			p.reset(pos, depth)
		}
		return e, nil
	case TokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		_, err = p.expect(TokRParen)
		return e, err
	case TokLBracket:
		p.advance()
		lit := &ArrayLit{Line: t.Line}
		for !p.at(TokRBracket) {
			el, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			lit.Elems = append(lit.Elems, el)
			if !p.accept(TokComma) {
				break
			}
		}
		_, err := p.expect(TokRBracket)
		return lit, err
	case TokLBrace:
		if p.noBraceDepth > 0 {
			return nil, p.errf("closure literal not allowed here")
		}
		return p.parseClosure()
	}
	return nil, p.errf("expected expression, found %s", t)
}

// tryTypeArgs attempts to parse `<T, U>`; on failure the caller restores pos.
func (p *Parser) tryTypeArgs() ([]*Type, bool) {
	if !p.accept(TokLt) {
		return nil, false
	}
	var args []*Type
	for {
		ty, err := p.parseType(nil)
		if err != nil {
			return nil, false
		}
		args = append(args, ty)
		if !p.accept(TokComma) {
			break
		}
	}
	if !p.accept(TokGt) {
		return nil, false
	}
	return args, true
}

func (p *Parser) parseClosure() (Expr, error) {
	line := p.cur().Line
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	cl := &ClosureExpr{Line: line, Ret: VoidType}
	params, err := p.parseParamList(nil)
	if err != nil {
		return nil, err
	}
	cl.Params = params
	if p.accept(TokArrow) {
		rt, err := p.parseType(nil)
		if err != nil {
			return nil, err
		}
		cl.Ret = rt
	}
	if _, err := p.expect(TokIn); err != nil {
		return nil, err
	}
	body := &BlockStmt{}
	for !p.at(TokRBrace) {
		if p.at(TokEOF) {
			return nil, p.errf("unterminated closure")
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body.Stmts = append(body.Stmts, st)
	}
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	cl.Body = body
	return cl, nil
}
