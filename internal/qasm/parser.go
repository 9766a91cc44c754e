package qasm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"svsim/internal/circuit"
	"svsim/internal/gate"
)

// Parse lowers an OpenQASM 2.0 source text to a circuit. Qubits of all
// quantum registers are flattened into one index space in declaration
// order, as are classical bits.
func Parse(src string) (*circuit.Circuit, error) { return ParseNamed("qasm", src) }

// ParseNamed is Parse with an explicit circuit name.
func ParseNamed(name, src string) (*circuit.Circuit, error) {
	p := &parser{
		lex:   newLexer(src),
		gdefs: map[string]*gateDef{},
		qregs: map[string]reg{},
		cregs: map[string]reg{},
		// Every statement ends in ';', and most emit one op; the hint is
		// capped because comments may hold any number of ';'.
		circ: &circuit.Circuit{Name: name, Ops: make([]circuit.Op, 0, min(strings.Count(src, ";"), maxOpsHint))},
	}
	p.tok = p.lex.next()
	err := p.parseProgram()
	if lerr := p.lex.drain(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	if err := p.circ.Validate(); err != nil {
		return nil, err
	}
	return p.circ, nil
}

type reg struct {
	name   string
	offset int
	size   int
}

// gateDef is a user gate macro: formal parameter names, formal qubit
// argument names, and a body of calls to other gates.
type gateDef struct {
	name   string
	params []string
	qargs  []string
	body   []bodyStmt
	opaque bool
}

type bodyStmt struct {
	name  string // callee gate name
	exprs []expr
	args  []int // indices into the definition's qargs
	line  int
}

// argRef is a resolved top-level operand: a register and an optional index
// (-1 means the whole register, triggering broadcast).
type argRef struct {
	offset, size int // the register's
	idx          int
}

// frame is the scratch one level of gate expansion hands to the next:
// the callee's parameters and qubits (gate.New copies both).
type frame struct {
	params []float64
	qubits []int
}

type parser struct {
	lex lexer
	tok token // one token of lookahead

	qregs map[string]reg
	cregs map[string]reg
	gdefs map[string]*gateDef
	circ  *circuit.Circuit

	spent int // gate calls and operations so far, bounded by maxOps

	// Scratch reused across statements: the expression being compiled and
	// the formals it may name, the evaluation stack, a top-level call's
	// operands, and one frame per expansion depth (frames[0] is the
	// top-level call's).
	code    expr
	formals []string
	stack   []float64
	args    []argRef
	frames  [maxExpandDepth + 2]frame
}

func (p *parser) peek() token { return p.tok }

// next consumes the lookahead; past the end it stays at end of input.
func (p *parser) next() token {
	t := p.tok
	p.tok = p.lex.next()
	return t
}

func (p *parser) expect(k tokKind) error {
	t := p.next()
	if t.kind != k {
		return fmt.Errorf("line %d: expected %s, found %s %q", t.line, k, t.kind, t.text)
	}
	return nil
}

func (p *parser) parseProgram() error {
	// Optional "OPENQASM 2.0;" header.
	if t := p.peek(); t.kind == tIdent && t.text == "OPENQASM" {
		p.next()
		v := p.next()
		if v.kind != tReal && v.kind != tInt {
			return fmt.Errorf("line %d: bad OPENQASM version %q", v.line, v.text)
		}
		if v.text != "2.0" && v.text != "2" {
			return fmt.Errorf("line %d: unsupported OpenQASM version %q (only 2.0)", v.line, v.text)
		}
		if err := p.expect(tSemi); err != nil {
			return err
		}
	}
	for {
		t := p.peek()
		if t.kind == tEOF {
			return nil
		}
		if err := p.parseStatement(); err != nil {
			return err
		}
	}
}

func (p *parser) parseStatement() error {
	t := p.peek()
	if t.kind != tIdent {
		return fmt.Errorf("line %d: expected statement, found %s %q", t.line, t.kind, t.text)
	}
	switch t.text {
	case "include":
		return p.parseInclude()
	case "qreg":
		return p.parseReg(true)
	case "creg":
		return p.parseReg(false)
	case "gate":
		return p.parseGateDef(false)
	case "opaque":
		return p.parseGateDef(true)
	case "measure":
		return p.parseMeasure(nil)
	case "reset":
		return p.parseReset(nil)
	case "barrier":
		return p.parseBarrier()
	case "if":
		return p.parseIf()
	default:
		return p.parseGateCall(nil)
	}
}

func (p *parser) parseInclude() error {
	p.next() // include
	t := p.next()
	if t.kind != tString {
		return fmt.Errorf("line %d: include expects a string filename", t.line)
	}
	// qelib1 is implemented natively as the SV-Sim ISA; the include is a
	// recognized no-op. Any other include cannot be resolved (the module
	// is self-contained and offline).
	if t.text != "qelib1.inc" {
		return fmt.Errorf("line %d: cannot include %q (only the built-in qelib1.inc is available)", t.line, t.text)
	}
	return p.expect(tSemi)
}

func (p *parser) parseReg(quantum bool) error {
	p.next() // qreg | creg
	nameTok := p.next()
	if nameTok.kind != tIdent {
		return fmt.Errorf("line %d: expected register name", nameTok.line)
	}
	if err := p.expect(tLBracket); err != nil {
		return err
	}
	sizeTok := p.next()
	if sizeTok.kind != tInt {
		return fmt.Errorf("line %d: expected register size", sizeTok.line)
	}
	size, err := intLit(sizeTok)
	if err != nil {
		return err
	}
	if size <= 0 {
		return fmt.Errorf("line %d: register %q has non-positive size %d", sizeTok.line, nameTok.text, size)
	}
	if err := p.expect(tRBracket); err != nil {
		return err
	}
	if err := p.expect(tSemi); err != nil {
		return err
	}
	if _, dup := p.qregs[nameTok.text]; dup {
		return fmt.Errorf("line %d: register %q redeclared", nameTok.line, nameTok.text)
	}
	if _, dup := p.cregs[nameTok.text]; dup {
		return fmt.Errorf("line %d: register %q redeclared", nameTok.line, nameTok.text)
	}
	regs, count := p.cregs, &p.circ.NumClbits
	if quantum {
		regs, count = p.qregs, &p.circ.NumQubits
	}
	// Gate operands and classical bits are int32.
	if size > math.MaxInt32-*count {
		return fmt.Errorf("line %d: register %q of size %d takes the declared bits past %d", sizeTok.line, nameTok.text, size, math.MaxInt32)
	}
	regs[nameTok.text] = reg{nameTok.text, *count, size}
	*count += size
	return nil
}

func (p *parser) parseGateDef(opaque bool) error {
	p.next() // gate | opaque
	nameTok := p.next()
	if nameTok.kind != tIdent {
		return fmt.Errorf("line %d: expected gate name", nameTok.line)
	}
	def := &gateDef{name: nameTok.text, opaque: opaque}
	if p.peek().kind == tLParen {
		p.next()
		for p.peek().kind != tRParen {
			t := p.next()
			if t.kind != tIdent {
				return fmt.Errorf("line %d: expected parameter name", t.line)
			}
			def.params = append(def.params, t.text)
			if p.peek().kind == tComma {
				p.next()
			}
		}
		p.next() // )
	}
	for {
		t := p.next()
		if t.kind != tIdent {
			return fmt.Errorf("line %d: expected qubit argument name", t.line)
		}
		def.qargs = append(def.qargs, t.text)
		if p.peek().kind != tComma {
			break
		}
		p.next()
	}
	if opaque {
		if err := p.expect(tSemi); err != nil {
			return err
		}
		p.gdefs[def.name] = def
		return nil
	}
	if err := p.expect(tLBrace); err != nil {
		return err
	}
	for p.peek().kind != tRBrace {
		stmt, err := p.parseBodyStmt(def)
		if err != nil {
			return err
		}
		if stmt.name != "" {
			def.body = append(def.body, stmt)
		}
	}
	p.next() // }
	if def.name == "U" || def.name == "CX" {
		return fmt.Errorf("line %d: cannot redefine primitive gate %q", nameTok.line, def.name)
	}
	p.gdefs[def.name] = def
	return nil
}

func (p *parser) parseBodyStmt(def *gateDef) (bodyStmt, error) {
	t := p.next()
	if t.kind != tIdent {
		return bodyStmt{}, fmt.Errorf("line %d: expected gate call in body of %q", t.line, def.name)
	}
	stmt := bodyStmt{name: t.text, line: t.line}
	if t.text == "barrier" {
		// Consume the operand list; barriers are scheduling hints only.
		for k := p.peek().kind; k != tSemi && k != tEOF; k = p.peek().kind {
			p.next()
		}
		stmt.name = "" // dropped from the body
		return stmt, p.expect(tSemi)
	}
	if p.peek().kind == tLParen {
		p.next()
		for p.peek().kind != tRParen {
			if err := p.parseExpr(def.params); err != nil {
				return bodyStmt{}, err
			}
			stmt.exprs = append(stmt.exprs, append(expr(nil), p.code...))
			if p.peek().kind == tComma {
				p.next()
			}
		}
		p.next()
	}
	for {
		a := p.next()
		if a.kind != tIdent {
			return bodyStmt{}, fmt.Errorf("line %d: expected qubit argument in body of %q", a.line, def.name)
		}
		// A repeated argument name binds its last position.
		idx := len(def.qargs) - 1
		for idx >= 0 && def.qargs[idx] != a.text {
			idx--
		}
		if idx < 0 {
			return bodyStmt{}, fmt.Errorf("line %d: %q is not an argument of gate %q", a.line, a.text, def.name)
		}
		stmt.args = append(stmt.args, idx)
		if p.peek().kind != tComma {
			break
		}
		p.next()
	}
	if err := p.expect(tSemi); err != nil {
		return bodyStmt{}, err
	}
	return stmt, nil
}

// parseArg parses a top-level operand: reg or reg[idx].
func (p *parser) parseArg(quantum bool) (argRef, error) {
	t := p.next()
	if t.kind != tIdent {
		return argRef{}, fmt.Errorf("line %d: expected register operand", t.line)
	}
	regs := p.cregs
	if quantum {
		regs = p.qregs
	}
	r, ok := regs[t.text]
	if !ok {
		return argRef{}, fmt.Errorf("line %d: undeclared register %q", t.line, t.text)
	}
	idx := -1
	if p.peek().kind == tLBracket {
		p.next()
		it := p.next()
		if it.kind != tInt {
			return argRef{}, fmt.Errorf("line %d: expected index", it.line)
		}
		var err error
		if idx, err = intLit(it); err != nil {
			return argRef{}, err
		}
		if idx >= r.size {
			return argRef{}, fmt.Errorf("line %d: index %d out of range for %q[%d]", it.line, idx, r.name, r.size)
		}
		if err := p.expect(tRBracket); err != nil {
			return argRef{}, err
		}
	}
	return argRef{r.offset, r.size, idx}, nil
}

func (p *parser) parseGateCall(cond *circuit.Condition) error {
	nameTok := p.next()
	name := nameTok.text
	params := p.frames[0].params[:0]
	if p.peek().kind == tLParen {
		p.next()
		for p.peek().kind != tRParen {
			if err := p.parseExpr(nil); err != nil {
				return err
			}
			v, err := p.eval(p.code, nil)
			if err != nil {
				return err
			}
			params = append(params, v)
			if p.peek().kind == tComma {
				p.next()
			}
		}
		p.next()
	}
	p.frames[0].params = params
	args := p.args[:0]
	if p.peek().kind != tSemi { // gphase takes no qubit operands
		for {
			a, err := p.parseArg(true)
			if err != nil {
				return err
			}
			args = append(args, a)
			if p.peek().kind != tComma {
				break
			}
			p.next()
		}
	}
	p.args = args
	if err := p.expect(tSemi); err != nil {
		return err
	}
	return p.broadcast(nameTok.line, name, params, args, cond)
}

// broadcast resolves whole-register operands: every whole register must
// have the same size s and the call is emitted s times.
func (p *parser) broadcast(line int, name string, params []float64, args []argRef, cond *circuit.Condition) error {
	bsize := 0
	for _, a := range args {
		if a.idx < 0 {
			if bsize == 0 {
				bsize = a.size
			} else if a.size != bsize {
				return fmt.Errorf("line %d: mismatched register sizes in broadcast call of %q (%d vs %d)",
					line, name, bsize, a.size)
			}
		}
	}
	reps := bsize
	if reps == 0 {
		reps = 1
	}
	f := &p.frames[0]
	for i := 0; i < reps; i++ {
		f.qubits = f.qubits[:0]
		for _, a := range args {
			if a.idx < 0 {
				f.qubits = append(f.qubits, a.offset+i)
			} else {
				f.qubits = append(f.qubits, a.offset+a.idx)
			}
		}
		if err := p.emit(line, name, params, f.qubits, cond, 0); err != nil {
			return err
		}
	}
	return nil
}

const maxExpandDepth = 64

// maxOps bounds the gate calls (native or macro) and broadcast measures
// and resets one program may expand to: a broadcast over a huge register
// or doubling macros turn a few bytes of source into more work than any
// simulation holds (4M ops take about 270 MB).
const maxOps = 1 << 22

// maxOpsHint caps the initial capacity of a parsed circuit's ops; larger
// programs grow past it by append.
const maxOpsHint = 1 << 16

// spend counts one gate call or operation against maxOps.
func (p *parser) spend(line int) error {
	if p.spent++; p.spent > maxOps {
		return fmt.Errorf("line %d: program expands past %d gate calls and operations", line, maxOps)
	}
	return nil
}

// emit resolves a gate call against user definitions first (macros expand
// recursively), then the native SV-Sim ISA.
func (p *parser) emit(line int, name string, params []float64, qubits []int, cond *circuit.Condition, depth int) error {
	if depth > maxExpandDepth {
		return fmt.Errorf("line %d: gate %q expands too deep (recursive definition?)", line, name)
	}
	if err := p.spend(line); err != nil {
		return err
	}
	if def, ok := p.gdefs[name]; ok {
		if def.opaque {
			return fmt.Errorf("line %d: cannot simulate opaque gate %q", line, name)
		}
		if len(params) != len(def.params) {
			return fmt.Errorf("line %d: gate %q wants %d params, got %d", line, name, len(def.params), len(params))
		}
		if len(qubits) != len(def.qargs) {
			return fmt.Errorf("line %d: gate %q wants %d qubits, got %d", line, name, len(def.qargs), len(qubits))
		}
		f := &p.frames[depth+1]
		for _, stmt := range def.body {
			f.params = f.params[:0]
			for _, e := range stmt.exprs {
				v, err := p.eval(e, params)
				if err != nil {
					return err
				}
				f.params = append(f.params, v)
			}
			f.qubits = f.qubits[:0]
			for _, a := range stmt.args {
				f.qubits = append(f.qubits, qubits[a])
			}
			if err := p.emit(stmt.line, stmt.name, f.params, f.qubits, cond, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return p.emitNative(line, name, params, qubits, cond)
}

func (p *parser) emitNative(line int, name string, params []float64, qubits []int, cond *circuit.Condition) error {
	k, ok := gate.KindByName(name)
	if !ok {
		// The u0 idle gate takes a duration parameter and does nothing.
		if name == "u0" {
			if len(qubits) != 1 {
				return fmt.Errorf("line %d: u0 takes one qubit", line)
			}
			p.appendOp(gate.NewID(qubits[0]), cond)
			return nil
		}
		return fmt.Errorf("line %d: unknown gate %q", line, name)
	}
	if len(params) != k.NumParams() {
		return fmt.Errorf("line %d: gate %q wants %d params, got %d", line, name, k.NumParams(), len(params))
	}
	if len(qubits) != k.NumQubits() {
		return fmt.Errorf("line %d: gate %q wants %d qubits, got %d", line, name, k.NumQubits(), len(qubits))
	}
	for i := range qubits {
		for j := i + 1; j < len(qubits); j++ {
			if qubits[i] == qubits[j] {
				return fmt.Errorf("line %d: gate %q has duplicate operand qubit %d", line, name, qubits[i])
			}
		}
	}
	for _, v := range params {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("line %d: gate %q has a non-finite parameter %g", line, name, v)
		}
	}
	p.appendOp(gate.New(k, qubits, params...), cond)
	return nil
}

func (p *parser) appendOp(g gate.Gate, cond *circuit.Condition) {
	if cond != nil {
		p.circ.AppendCond(g, *cond)
	} else {
		p.circ.Ops = append(p.circ.Ops, circuit.Op{G: g})
	}
}

func (p *parser) parseMeasure(cond *circuit.Condition) error {
	mTok := p.next() // measure
	src, err := p.parseArg(true)
	if err != nil {
		return err
	}
	if err := p.expect(tArrow); err != nil {
		return err
	}
	dst, err := p.parseArg(false)
	if err != nil {
		return err
	}
	if err := p.expect(tSemi); err != nil {
		return err
	}
	switch {
	case src.idx >= 0 && dst.idx >= 0:
		p.appendOp(gate.NewMeasure(src.offset+src.idx, dst.offset+dst.idx), cond)
	case src.idx < 0 && dst.idx < 0:
		if src.size != dst.size {
			return fmt.Errorf("line %d: measure register size mismatch %d vs %d", mTok.line, src.size, dst.size)
		}
		for i := 0; i < src.size; i++ {
			if err := p.spend(mTok.line); err != nil {
				return err
			}
			p.appendOp(gate.NewMeasure(src.offset+i, dst.offset+i), cond)
		}
	default:
		return fmt.Errorf("line %d: measure must be fully indexed or fully broadcast", mTok.line)
	}
	return nil
}

func (p *parser) parseReset(cond *circuit.Condition) error {
	rTok := p.next() // reset
	a, err := p.parseArg(true)
	if err != nil {
		return err
	}
	if err := p.expect(tSemi); err != nil {
		return err
	}
	if a.idx >= 0 {
		p.appendOp(gate.NewReset(a.offset+a.idx), cond)
	} else {
		for i := 0; i < a.size; i++ {
			if err := p.spend(rTok.line); err != nil {
				return err
			}
			p.appendOp(gate.NewReset(a.offset+i), cond)
		}
	}
	return nil
}

func (p *parser) parseBarrier() error {
	p.next() // barrier
	for p.peek().kind != tSemi {
		if _, err := p.parseArg(true); err != nil {
			return err
		}
		if p.peek().kind == tComma {
			p.next()
		}
	}
	p.next() // ;
	p.circ.Append(gate.NewBarrier())
	return nil
}

func (p *parser) parseIf() error {
	ifTok := p.next() // if
	if err := p.expect(tLParen); err != nil {
		return err
	}
	cTok := p.next()
	if cTok.kind != tIdent {
		return fmt.Errorf("line %d: expected classical register in if", cTok.line)
	}
	cr, ok := p.cregs[cTok.text]
	if !ok {
		return fmt.Errorf("line %d: undeclared classical register %q", cTok.line, cTok.text)
	}
	if err := p.expect(tEqEq); err != nil {
		return err
	}
	vTok := p.next()
	if vTok.kind != tInt {
		return fmt.Errorf("line %d: expected integer in if condition", vTok.line)
	}
	val, err := strconv.ParseUint(vTok.text, 10, 64)
	if err != nil {
		return outOfRange(vTok)
	}
	if err := p.expect(tRParen); err != nil {
		return err
	}
	cond := &circuit.Condition{Offset: cr.offset, Width: cr.size, Value: val}
	t := p.peek()
	if t.kind != tIdent {
		return fmt.Errorf("line %d: expected quantum operation after if", ifTok.line)
	}
	switch t.text {
	case "measure":
		return p.parseMeasure(cond)
	case "reset":
		return p.parseReset(cond)
	case "if", "gate", "qreg", "creg", "include", "opaque", "barrier":
		return fmt.Errorf("line %d: %q cannot be conditioned", t.line, t.text)
	default:
		return p.parseGateCall(cond)
	}
}

// intLit is the value of integer token t as an int, or an error naming
// the literal when it does not fit.
func intLit(t token) (int, error) {
	v, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, outOfRange(t)
	}
	return v, nil
}

func outOfRange(t token) error {
	return fmt.Errorf("line %d: integer literal %s is out of range", t.line, t.text)
}
