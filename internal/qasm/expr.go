package qasm

import (
	"fmt"
	"math"
	"strconv"
)

// Parameter expressions: the OpenQASM 2.0 <exp> grammar with pi, formal
// parameter references, the four arithmetic operators, unary minus, right
// associative ^, and the unary functions sin/cos/tan/exp/ln/sqrt.
//
// An expression is compiled to postfix code and evaluated on a stack, so a
// top-level call's parameters are parsed into and evaluated from
// parser-owned scratch without allocating.

// exprOp is one postfix instruction.
type exprOp struct {
	kind byte    // opNum, opParam, opUnknown, opNeg, opFunc or the binary operator + - * / ^
	val  float64 // opNum
	idx  int     // opParam: index of the formal parameter
	name string  // opUnknown: the parameter name; opFunc: the function
	line int
}

const (
	opNum     = 'n'
	opParam   = 'p'
	opUnknown = '?'
	opNeg     = '~'
	opFunc    = 'f'
)

// expr is an expression's postfix code.
type expr []exprOp

// eval runs code with formal parameter values env on the parser's stack.
// Instructions run in the order a left-to-right tree walk would evaluate
// them, so the first error is the one that walk would meet.
func (p *parser) eval(code expr, env []float64) (float64, error) {
	st := p.stack[:0]
	for i := range code {
		op := &code[i]
		switch op.kind {
		case opNum:
			st = append(st, op.val)
		case opParam:
			st = append(st, env[op.idx])
		case opUnknown:
			return 0, fmt.Errorf("line %d: unknown parameter %q", op.line, op.name)
		case opNeg:
			st[len(st)-1] = -st[len(st)-1]
		case opFunc:
			v, err := callFunc(op, st[len(st)-1])
			if err != nil {
				return 0, err
			}
			st[len(st)-1] = v
		default:
			l, r := st[len(st)-2], st[len(st)-1]
			st = st[:len(st)-1]
			switch op.kind {
			case '+':
				l += r
			case '-':
				l -= r
			case '*':
				l *= r
			case '/':
				if r == 0 {
					return 0, fmt.Errorf("line %d: division by zero in parameter expression", op.line)
				}
				l /= r
			case '^':
				l = math.Pow(l, r)
			}
			st[len(st)-1] = l
		}
	}
	p.stack = st
	return st[0], nil
}

func callFunc(op *exprOp, v float64) (float64, error) {
	switch op.name {
	case "sin":
		return math.Sin(v), nil
	case "cos":
		return math.Cos(v), nil
	case "tan":
		return math.Tan(v), nil
	case "exp":
		return math.Exp(v), nil
	case "ln":
		if v <= 0 {
			return 0, fmt.Errorf("line %d: ln of non-positive value %g", op.line, v)
		}
		return math.Log(v), nil
	case "sqrt":
		if v < 0 {
			return 0, fmt.Errorf("line %d: sqrt of negative value %g", op.line, v)
		}
		return math.Sqrt(v), nil
	}
	return 0, fmt.Errorf("line %d: unknown function %q", op.line, op.name)
}

// parseExpr compiles one expression into p.code, replacing what it held.
// formals names the enclosing gate definition's parameters (nil at top
// level, where every identifier but pi and the functions is unknown).
func (p *parser) parseExpr(formals []string) error {
	p.code = p.code[:0]
	p.formals = formals
	return p.parseSum()
}

func (p *parser) parseSum() error {
	if err := p.parseTerm(); err != nil {
		return err
	}
	for k := p.peek().kind; k == tPlus || k == tMinus; k = p.peek().kind {
		op := p.next()
		if err := p.parseTerm(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{kind: op.text[0], line: op.line})
	}
	return nil
}

func (p *parser) parseTerm() error {
	if err := p.parseUnary(); err != nil {
		return err
	}
	for k := p.peek().kind; k == tStar || k == tSlash; k = p.peek().kind {
		op := p.next()
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{kind: op.text[0], line: op.line})
	}
	return nil
}

func (p *parser) parseUnary() error {
	switch p.peek().kind {
	case tMinus:
		p.next()
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{kind: opNeg})
		return nil
	case tPlus:
		p.next()
		return p.parseUnary()
	}
	return p.parsePower()
}

func (p *parser) parsePower() error {
	if err := p.parsePrimary(); err != nil {
		return err
	}
	if p.peek().kind == tCaret {
		op := p.next()
		// Right associative: a^b^c = a^(b^c).
		if err := p.parseUnary(); err != nil {
			return err
		}
		p.code = append(p.code, exprOp{kind: '^', line: op.line})
	}
	return nil
}

func (p *parser) parsePrimary() error {
	tok := p.next()
	switch tok.kind {
	case tInt, tReal:
		v, err := strconv.ParseFloat(tok.text, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad number %q", tok.line, tok.text)
		}
		p.code = append(p.code, exprOp{kind: opNum, val: v})
		return nil
	case tLParen:
		if err := p.parseSum(); err != nil {
			return err
		}
		return p.expect(tRParen)
	case tIdent:
		switch tok.text {
		case "pi":
			p.code = append(p.code, exprOp{kind: opNum, val: math.Pi})
			return nil
		case "sin", "cos", "tan", "exp", "ln", "sqrt":
			if err := p.expect(tLParen); err != nil {
				return err
			}
			if err := p.parseSum(); err != nil {
				return err
			}
			if err := p.expect(tRParen); err != nil {
				return err
			}
			p.code = append(p.code, exprOp{kind: opFunc, name: tok.text, line: tok.line})
			return nil
		}
		// A repeated formal name binds its last position.
		for i := len(p.formals) - 1; i >= 0; i-- {
			if p.formals[i] == tok.text {
				p.code = append(p.code, exprOp{kind: opParam, idx: i})
				return nil
			}
		}
		p.code = append(p.code, exprOp{kind: opUnknown, name: tok.text, line: tok.line})
		return nil
	}
	return fmt.Errorf("line %d: expected expression, found %s", tok.line, tok.kind)
}
