// Package qasm implements an OpenQASM 2.0 frontend for SV-Sim: a lexer,
// recursive-descent parser, constant-expression evaluator, and gate-macro
// expander that lower a QASM program to the circuit IR. All of qelib1.inc
// is provided natively (the paper's SV-Sim ISA implements the OpenQASM
// basic and standard gates directly and composes the compound ones), so
// `include "qelib1.inc"` needs no file access.
package qasm

import (
	"fmt"
	"strings"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt
	tReal
	tString
	tSemi     // ;
	tComma    // ,
	tLParen   // (
	tRParen   // )
	tLBracket // [
	tRBracket // ]
	tLBrace   // {
	tRBrace   // }
	tArrow    // ->
	tEqEq     // ==
	tPlus
	tMinus
	tStar
	tSlash
	tCaret
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of input"
	case tIdent:
		return "identifier"
	case tInt:
		return "integer"
	case tReal:
		return "real"
	case tString:
		return "string"
	case tSemi:
		return "';'"
	case tComma:
		return "','"
	case tLParen:
		return "'('"
	case tRParen:
		return "')'"
	case tLBracket:
		return "'['"
	case tRBracket:
		return "']'"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tArrow:
		return "'->'"
	case tEqEq:
		return "'=='"
	case tPlus:
		return "'+'"
	case tMinus:
		return "'-'"
	case tStar:
		return "'*'"
	case tSlash:
		return "'/'"
	case tCaret:
		return "'^'"
	}
	return "token"
}

// token is one lexeme; text is a sub-slice of the source.
type token struct {
	kind tokKind
	text string
	line int
}

// punct maps each character that is always a one-byte token to its kind
// (tEOF: none). '-' and '/' may start "->" and "//", so they are not here.
var punct = [256]tokKind{
	';': tSemi, ',': tComma, '(': tLParen, ')': tRParen,
	'[': tLBracket, ']': tRBracket, '{': tLBrace, '}': tRBrace,
	'+': tPlus, '*': tStar, '^': tCaret,
}

// Byte classes: OpenQASM 2 identifiers and numbers are ASCII.
const (
	cLetter  = 1 << iota // A-Z a-z _
	cDigit               // 0-9
	cSpace               // blank, tab, carriage return
	cNewline             // \n
)

var class = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = cLetter, cLetter
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = cDigit
	}
	t['_'] = cLetter
	t[' '], t['\t'], t['\r'] = cSpace, cSpace, cSpace
	t['\n'] = cNewline
	return t
}()

func isDigit(c byte) bool { return c-'0' < 10 }

// lexer hands out the tokens of an OpenQASM source one at a time,
// stripping // comments. After the first lexical error it records the
// error and reports end of input.
type lexer struct {
	src  string
	pos  int
	line int
	err  error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

func (l *lexer) next() token {
	src, i, n := l.src, l.pos, len(l.src)
	for i < n {
		c := src[i]
		if k := punct[c]; k != tEOF {
			return l.emit(k, i, i+1, i+1)
		}
		switch class[c] {
		case cSpace:
			i++
		case cNewline:
			l.line++
			i++
		case cLetter:
			j := i + 1
			for j < n && class[src[j]]&(cLetter|cDigit) != 0 {
				j++
			}
			return l.emit(tIdent, i, j, j)
		case cDigit:
			return l.number(i)
		default:
			switch {
			case c == '/' && i+1 < n && src[i+1] == '/':
				for i < n && src[i] != '\n' {
					i++
				}
			case c == '/':
				return l.emit(tSlash, i, i+1, i+1)
			case c == '.' && i+1 < n && isDigit(src[i+1]):
				return l.number(i)
			case c == '"':
				j := strings.IndexByte(src[i+1:], '"')
				if j < 0 {
					return l.fail(fmt.Errorf("line %d: unterminated string", l.line))
				}
				return l.emit(tString, i+1, i+1+j, i+2+j)
			case c == '-' && i+1 < n && src[i+1] == '>':
				return l.emit(tArrow, i, i+2, i+2)
			case c == '-':
				return l.emit(tMinus, i, i+1, i+1)
			case c == '=' && i+1 < n && src[i+1] == '=':
				return l.emit(tEqEq, i, i+2, i+2)
			default:
				return l.fail(fmt.Errorf("line %d: unexpected character %q", l.line, string(c)))
			}
		}
	}
	l.pos = i
	return token{tEOF, "", l.line}
}

// number lexes the integer or real literal that starts at src[i].
func (l *lexer) number(i int) token {
	src, n := l.src, len(l.src)
	j := i
	kind := tInt
	for j < n && isDigit(src[j]) {
		j++
	}
	if j < n && src[j] == '.' {
		kind = tReal
		j++
		for j < n && isDigit(src[j]) {
			j++
		}
	}
	if j < n && (src[j] == 'e' || src[j] == 'E') {
		k := j + 1
		if k < n && (src[k] == '+' || src[k] == '-') {
			k++
		}
		if k < n && isDigit(src[k]) {
			kind = tReal
			j = k
			for j < n && isDigit(src[j]) {
				j++
			}
		}
	}
	return l.emit(kind, i, j, j)
}

// fail records a lexical error and ends the input there.
func (l *lexer) fail(err error) token {
	l.err, l.pos = err, len(l.src)
	return token{tEOF, "", l.line}
}

// emit returns the token src[from:to] and resumes lexing at end.
func (l *lexer) emit(k tokKind, from, to, end int) token {
	l.pos = end
	return token{k, l.src[from:to], l.line}
}

// drain lexes the rest of the source and returns the first lexical
// error in it, if any: a lexical error anywhere outranks a parse error.
func (l *lexer) drain() error {
	for l.next().kind != tEOF {
	}
	return l.err
}
