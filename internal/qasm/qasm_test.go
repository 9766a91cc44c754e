package qasm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"svsim/internal/circuit"
	"svsim/internal/gate"
	"svsim/internal/statevec"
)

func TestParseBell(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 2 || c.NumClbits != 2 {
		t.Fatalf("registers: %d qubits, %d clbits", c.NumQubits, c.NumClbits)
	}
	if c.NumGates() != 4 {
		t.Fatalf("got %d ops", c.NumGates())
	}
	if c.Ops[0].G.Kind != gate.H || c.Ops[1].G.Kind != gate.CX {
		t.Fatalf("wrong gates: %v %v", c.Ops[0].G, c.Ops[1].G)
	}
	if c.Ops[2].G.Kind != gate.MEASURE || c.Ops[3].G.Cbit != 1 {
		t.Fatalf("wrong measures: %v %v", c.Ops[2].G, c.Ops[3].G)
	}
}

func TestParseEveryTableOneGate(t *testing.T) {
	// Every gate of the paper's Table 1 must parse by its OpenQASM name.
	src := `
qreg q[5];
u3(0.1,0.2,0.3) q[0];
u2(0.1,0.2) q[0];
u1(0.1) q[0];
cx q[0],q[1];
id q[0];
x q[0]; y q[0]; z q[0]; h q[0];
s q[0]; sdg q[0]; t q[0]; tdg q[0];
rx(0.5) q[0]; ry(0.5) q[0]; rz(0.5) q[0];
cz q[0],q[1]; cy q[0],q[1]; swap q[0],q[1]; ch q[0],q[1];
ccx q[0],q[1],q[2];
cswap q[0],q[1],q[2];
crx(0.5) q[0],q[1]; cry(0.5) q[0],q[1]; crz(0.5) q[0],q[1];
cu1(0.5) q[0],q[1];
cu3(0.1,0.2,0.3) q[0],q[1];
rxx(0.5) q[0],q[1];
rzz(0.5) q[0],q[1];
rccx q[0],q[1],q[2];
rc3x q[0],q[1],q[2],q[3];
c3x q[0],q[1],q[2],q[3];
c3sqrtx q[0],q[1],q[2],q[3];
c4x q[0],q[1],q[2],q[3],q[4];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 34 {
		t.Fatalf("got %d gates, want 34", c.NumGates())
	}
}

func TestParseAliases(t *testing.T) {
	src := `
qreg q[2];
U(0.1,0.2,0.3) q[0];
CX q[0],q[1];
p(0.5) q[0];
u(0.1,0.2,0.3) q[0];
cp(0.5) q[0],q[1];
u0(1) q[0];
sx q[0];
sxdg q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wants := []gate.Kind{gate.U3, gate.CX, gate.U1, gate.U3, gate.CU1, gate.ID, gate.SX, gate.SXDG}
	for i, w := range wants {
		if c.Ops[i].G.Kind != w {
			t.Errorf("op %d: got %s, want %s", i, c.Ops[i].G.Kind, w)
		}
	}
}

func TestParamExpressions(t *testing.T) {
	src := `
qreg q[1];
rz(pi/2) q[0];
rz(-pi/4) q[0];
rz(2*pi) q[0];
rz(pi^2) q[0];
rz(sin(pi/6)) q[0];
rz(cos(0)) q[0];
rz(sqrt(4)) q[0];
rz(ln(exp(1))) q[0];
rz(1+2*3) q[0];
rz((1+2)*3) q[0];
rz(tan(0)) q[0];
rz(3-1-1) q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// The same operations in float64, in the same order: bit-equal.
	pi, one := math.Pi, 1.0
	wants := []float64{
		pi / 2, -pi / 4, 2 * pi, math.Pow(pi, 2),
		math.Sin(pi / 6), math.Cos(0), math.Sqrt(4), math.Log(math.Exp(one)), 1 + 2*3, (1 + 2) * 3, math.Tan(0), 3 - 1 - 1,
	}
	for i, w := range wants {
		if got := c.Ops[i].G.Params[0]; math.Float64bits(got) != math.Float64bits(w) {
			t.Errorf("expr %d: got %v, want %v", i, got, w)
		}
	}
}

func TestGateMacroExpansion(t *testing.T) {
	src := `
qreg q[3];
gate majority a,b,c {
  cx c,b;
  cx c,a;
  ccx a,b,c;
}
gate rot(theta) x {
  rz(theta/2) x;
  ry(-theta) x;
}
majority q[0],q[1],q[2];
rot(pi) q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []gate.Kind{gate.CX, gate.CX, gate.CCX, gate.RZ, gate.RY}
	if c.NumGates() != len(kinds) {
		t.Fatalf("got %d gates", c.NumGates())
	}
	for i, w := range kinds {
		if c.Ops[i].G.Kind != w {
			t.Errorf("op %d: got %s, want %s", i, c.Ops[i].G.Kind, w)
		}
	}
	// majority's first cx is "cx c,b" = qubits 2,1.
	if c.Ops[0].G.Qubits[0] != 2 || c.Ops[0].G.Qubits[1] != 1 {
		t.Errorf("macro arg mapping wrong: %v", c.Ops[0].G)
	}
	if got := c.Ops[3].G.Params[0]; math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("macro param eval: %g", got)
	}
	if got := c.Ops[4].G.Params[0]; math.Abs(got+math.Pi) > 1e-12 {
		t.Errorf("macro param negation: %g", got)
	}
}

func TestNestedMacros(t *testing.T) {
	src := `
qreg q[2];
gate inner(a) x { rx(a) x; }
gate outer(b) x,y { inner(b*2) x; inner(b/2) y; cx x,y; }
outer(0.5) q[0],q[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 3 {
		t.Fatalf("got %d gates", c.NumGates())
	}
	if c.Ops[0].G.Params[0] != 1.0 || c.Ops[1].G.Params[0] != 0.25 {
		t.Fatalf("nested macro params: %v %v", c.Ops[0].G, c.Ops[1].G)
	}
}

func TestBroadcast(t *testing.T) {
	src := `
qreg a[3];
qreg b[3];
h a;
cx a,b;
cx a[0],b;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 6 {
		t.Fatalf("qubits: %d", c.NumQubits)
	}
	if c.NumGates() != 3+3+3 {
		t.Fatalf("got %d gates", c.NumGates())
	}
	// cx a,b broadcasts pairwise: (0,3), (1,4), (2,5).
	for i := 0; i < 3; i++ {
		g := c.Ops[3+i].G
		if int(g.Qubits[0]) != i || int(g.Qubits[1]) != 3+i {
			t.Errorf("pairwise broadcast %d: %v", i, g)
		}
	}
	// cx a[0],b repeats the fixed control: (0,3), (0,4), (0,5).
	for i := 0; i < 3; i++ {
		g := c.Ops[6+i].G
		if g.Qubits[0] != 0 || int(g.Qubits[1]) != 3+i {
			t.Errorf("fixed-arg broadcast %d: %v", i, g)
		}
	}
}

func TestIfCondition(t *testing.T) {
	src := `
qreg q[2];
creg c[2];
measure q[0] -> c[0];
if (c == 1) x q[1];
if (c == 3) measure q[1] -> c[1];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[1].Cond == nil || c.Ops[1].Cond.Value != 1 || c.Ops[1].Cond.Width != 2 {
		t.Fatalf("if condition: %+v", c.Ops[1].Cond)
	}
	if c.Ops[2].Cond == nil || c.Ops[2].Cond.Value != 3 {
		t.Fatalf("conditioned measure: %+v", c.Ops[2].Cond)
	}
}

func TestBarrierAndReset(t *testing.T) {
	src := `
qreg q[3];
barrier q;
barrier q[0], q[2];
reset q[1];
reset q;
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].G.Kind != gate.BARRIER || c.Ops[1].G.Kind != gate.BARRIER {
		t.Fatal("barrier not parsed")
	}
	if c.Ops[2].G.Kind != gate.RESET || c.Ops[2].G.Qubits[0] != 1 {
		t.Fatal("indexed reset wrong")
	}
	if c.NumGates() != 2+1+3 {
		t.Fatalf("got %d ops", c.NumGates())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown gate", "qreg q[1]; bogus q[0];", "unknown gate"},
		{"bad index", "qreg q[2]; h q[5];", "out of range"},
		{"redeclared", "qreg q[1]; qreg q[2];", "redeclared"},
		{"undeclared", "h q[0];", "undeclared register"},
		{"opaque call", "qreg q[1]; opaque mystery x; mystery q[0];", "opaque"},
		{"bad include", `include "other.inc";`, "cannot include"},
		{"dup operands", "qreg q[2]; cx q[1],q[1];", "duplicate operand"},
		{"bad version", "OPENQASM 3.0;", "unsupported"},
		{"wrong arity", "qreg q[2]; h q[0],q[1];", "wants 1 qubits"},
		{"wrong params", "qreg q[1]; rx() q[0];", "wants 1 params"},
		{"measure mix", "qreg q[2]; creg c[2]; measure q -> c[0];", "fully indexed or fully broadcast"},
		{"measure size", "qreg q[2]; creg c[3]; measure q -> c;", "size mismatch"},
		{"redefine U", "gate U(a,b,c) x { }", "primitive"},
		{"div zero", "qreg q[1]; rz(1/0) q[0];", "division by zero"},
		{"bad char", "qreg q[1]; h q[0]; @", "unexpected character"},
		{"unterminated", `include "qelib1`, "unterminated"},
		{"neg size", "qreg q[0];", "non-positive"},
		{"cond gate def", "creg c[1]; if (c == 0) qreg q[1];", "cannot be conditioned"},
		{"if value overflow", "qreg q[1]; creg c[1];\nif (c == 18446744073709551616) x q[0];",
			"line 2: integer literal 18446744073709551616 is out of range"},
		{"size overflow", "qreg q[99999999999999999999];", "line 1: integer literal 99999999999999999999 is out of range"},
		{"index overflow", "qreg q[1];\n\nh q[99999999999999999999];", "line 3: integer literal 99999999999999999999 is out of range"},
		{"size past int32", "qreg a[2147483647]; qreg b[1];", `register "b" of size 1 takes the declared bits past 2147483647`},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestMacroShadowsBuiltin(t *testing.T) {
	// qelib1-style redefinition of a standard gate must take effect.
	src := `
qreg q[1];
gate h x { u2(0,pi) x; }
h q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].G.Kind != gate.U2 {
		t.Fatalf("macro did not shadow builtin: %v", c.Ops[0].G)
	}
}

func TestDumpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 5
	src := `
qreg q[5];
creg c[5];
h q;
cu3(0.12,0.34,0.56) q[0],q[3];
rzz(1.25) q[1],q[2];
ccx q[0],q[1],q[4];
t q[2];
rx(0.77) q[3];
`
	orig, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(Dump(orig))
	if err != nil {
		t.Fatalf("re-parsing dump: %v\n%s", err, Dump(orig))
	}
	// The two circuits must produce identical states.
	a := statevec.New(n)
	b := statevec.New(n)
	for i := range orig.Ops {
		a.Apply(&orig.Ops[i].G)
	}
	for i := range back.Ops {
		b.Apply(&back.Ops[i].G)
	}
	if d := a.MaxAbsDiff(b); d > 1e-12 {
		t.Fatalf("round trip changed the state by %g", d)
	}
	_ = rng
}

func TestDumpMeasureResetBarrierCond(t *testing.T) {
	src := `
qreg q[2];
creg c[2];
h q[0];
barrier q;
measure q[0] -> c[0];
if (c == 1) x q[1];
reset q[0];
`
	c1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(Dump(c1))
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, Dump(c1))
	}
	if c2.NumGates() != c1.NumGates() {
		t.Fatalf("op count changed: %d vs %d", c1.NumGates(), c2.NumGates())
	}
	if c2.Ops[3].Cond == nil || c2.Ops[3].Cond.Value != 1 {
		t.Fatalf("condition lost: %+v", c2.Ops[3])
	}
}

func TestParsedSimulationMatchesBuilder(t *testing.T) {
	// A QFT-like program written in QASM must match gate-by-gate manual
	// construction when simulated.
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cu1(pi/2) q[1],q[0];
cu1(pi/4) q[2],q[0];
cu1(pi/8) q[3],q[0];
h q[1];
cu1(pi/2) q[2],q[1];
cu1(pi/4) q[3],q[1];
h q[2];
cu1(pi/2) q[3],q[2];
h q[3];
swap q[0],q[3];
swap q[1],q[2];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := statevec.New(4)
	for i := range c.Ops {
		a.Apply(&c.Ops[i].G)
	}
	b := statevec.New(4)
	gs := []gate.Gate{
		gate.NewH(0),
		gate.NewCU1(math.Pi/2, 1, 0), gate.NewCU1(math.Pi/4, 2, 0), gate.NewCU1(math.Pi/8, 3, 0),
		gate.NewH(1),
		gate.NewCU1(math.Pi/2, 2, 1), gate.NewCU1(math.Pi/4, 3, 1),
		gate.NewH(2),
		gate.NewCU1(math.Pi/2, 3, 2),
		gate.NewH(3),
		gate.NewSWAP(0, 3), gate.NewSWAP(1, 2),
	}
	for i := range gs {
		b.Apply(&gs[i])
	}
	if d := a.MaxAbsDiff(b); d > 1e-13 {
		t.Fatalf("parsed QFT deviates by %g", d)
	}
}

func TestRecursiveMacroRejected(t *testing.T) {
	// Self reference is caught by the expansion depth guard at call time.
	src := `
qreg q[1];
gate loop x { loop x; }
loop q[0];
`
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "too deep") {
		t.Fatalf("recursive macro: %v", err)
	}
}

func TestGPhaseStatement(t *testing.T) {
	src := `
qreg q[1];
gphase(0.5);
h q[0];
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Ops[0].G.Kind != gate.GPHASE || c.Ops[0].G.Params[0] != 0.5 {
		t.Fatalf("gphase: %v", c.Ops[0].G)
	}
}

func TestMoreParseErrorPaths(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"body bad call", "gate f x { 5 x; }", "expected gate call"},
		{"body unknown arg", "gate f x { h y; }", "not an argument"},
		{"body missing semi", "gate f x { h x }", "expected"},
		{"gate arity to macro", "qreg q[2]; gate f x { h x; } f q[0],q[1];", "wants 1 qubits"},
		{"macro params", "qreg q[1]; gate f(a) x { rx(a) x; } f q[0];", "wants 1 params"},
		{"bad barrier operand", "qreg q[1]; barrier r;", "undeclared"},
		{"if bad register", "qreg q[1]; if (nope == 1) x q[0];", "undeclared classical"},
		{"if not int", "qreg q[1]; creg c[1]; if (c == x) x q[0];", "expected integer"},
		{"expr unknown fn", "qreg q[1]; rz(cosh(1)) q[0];", "unknown"},
		{"expr ln domain", "qreg q[1]; rz(ln(0)) q[0];", "ln of non-positive"},
		{"expr sqrt domain", "qreg q[1]; rz(sqrt(0-1)) q[0];", "sqrt of negative"},
		{"trailing junk", "qreg q[1]; ;", "expected statement"},
		{"bad index token", "qreg q[2]; h q[x];", "expected index"},
		{"broadcast mismatch", "qreg a[2]; qreg b[3]; cx a,b;", "mismatched register sizes"},
		{"body barrier unterminated", "gate f x { barrier x", "expected ';', found end of input"},
		{"infinite param", "qreg q[1]; rz(exp(1000)) q[0];", `gate "rz" has a non-finite parameter +Inf`},
		{"nan param in body", "qreg q[1]; gate f(a) x { rz(a-a) x; } f(exp(1000)) q[0];", `gate "rz" has a non-finite parameter NaN`},
		{"bad number", "qreg q[1]; rz(1e999) q[0];", "bad number"},
		{"lex error outranks parse error", "qreg q[1]; h q[0] foo;\n@", "line 2: unexpected character"},
		{"non-ASCII identifier", "qreg \xc3\xaa[1];", "unexpected character"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
}

func TestParsePowerAssociativity(t *testing.T) {
	// Right associativity: 2^3^2 = 2^9 = 512.
	c, err := Parse("qreg q[1]; rz(2^3^2/512) q[0];")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Ops[0].G.Params[0]; math.Abs(got-1) > 1e-12 {
		t.Fatalf("2^3^2/512 = %g, want 1", got)
	}
	// Unary plus and nested parens.
	c2, err := Parse("qreg q[1]; rz(+((1))) q[0];")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Ops[0].G.Params[0] != 1 {
		t.Fatal("unary plus mishandled")
	}
}

func TestDumpKeepsConditionRegisters(t *testing.T) {
	src := `
qreg q[2];
creg a[1];
creg b[2];
creg d[1];
measure q[0] -> b[1];
if (b == 1) x q[0];
if (a == 1) measure q[1] -> d[0];
`
	orig, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	dump := Dump(orig)
	back, err := Parse(dump)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, dump)
	}
	if err := sameCircuit(orig, back); err != nil {
		t.Fatalf("%v\n%s", err, dump)
	}
	want := circuit.Condition{Offset: 1, Width: 2, Value: 1}
	if got := back.Ops[1].Cond; got == nil || *got != want {
		t.Fatalf("condition on b became %+v, want %+v\n%s", got, want, dump)
	}
	// One register over every bit when every condition covers it.
	one := MustParse("one", "qreg q[1]; creg c[2]; if (c == 2) x q[0]; measure q[0] -> c[1];")
	if got := Dump(one); !strings.Contains(got, "creg c[2];\nif (c == 2) x q[0];\nmeasure q[0] -> c[1];\n") {
		t.Fatalf("whole-register dump changed:\n%s", got)
	}
}

// TestParseAllocsIndependentOfGates: the lexer hands out tokens without
// allocating and a call's operands live in parser scratch, so a program
// of plain gate lines costs the same allocations at any length.
func TestParseAllocsIndependentOfGates(t *testing.T) {
	program := func(gates int) string {
		var b strings.Builder
		b.WriteString("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n")
		lines := []string{"h q[0];\n", "cx q[0],q[1];\n", "rz(-pi/4) q[2]; // comment\n", "u3(0.1,0.2,0.3) q[3];\n", "cu1(1.5707963267948966) q[3],q[1];\n"}
		for i := 0; i < gates; i++ {
			b.WriteString(lines[i%len(lines)])
		}
		return b.String()
	}
	allocs := func(src string) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(program(100)), allocs(program(2000))
	if large > small+2 {
		t.Fatalf("parse allocations grow with gate count: %v at 100 gates, %v at 2000", small, large)
	}
}

// TestOpsHintIgnoresCommentSemicolons: the ops slice is sized from the
// ';' count, which a comment can inflate without bound; the hint is capped.
func TestOpsHintIgnoresCommentSemicolons(t *testing.T) {
	src := "qreg q[1]; x q[0]; // " + strings.Repeat(";", 1<<20) + "\n"
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != 1 || cap(c.Ops) > maxOpsHint {
		t.Fatalf("%d gates, cap(Ops) = %d; want 1 gate and cap at most %d", c.NumGates(), cap(c.Ops), maxOpsHint)
	}
}

func TestExpansionIsBounded(t *testing.T) {
	// g23 doubles g22 ... down to the empty g0: 2^24 calls from a few
	// hundred bytes, past maxOps without one op or allocation per call.
	var b strings.Builder
	b.WriteString("qreg q[1];\ngate g0 x { }\n")
	for i := 1; i < 24; i++ {
		fmt.Fprintf(&b, "gate g%d x { g%d x; g%d x; }\n", i, i-1, i-1)
	}
	b.WriteString("g23 q[0];\n")
	_, err := Parse(b.String())
	if err == nil || !strings.Contains(err.Error(), "program expands past 4194304") {
		t.Fatalf("doubling macros: %v", err)
	}
}

// MustParse is ParseNamed that panics on error.
func MustParse(name, src string) *circuit.Circuit {
	c, err := ParseNamed(name, src)
	if err != nil {
		panic(err)
	}
	return c
}
