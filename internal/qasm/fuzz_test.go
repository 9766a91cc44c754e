package qasm

import (
	"strings"
	"testing"
)

// FuzzParse checks the frontend's total robustness: arbitrary input must
// produce either a circuit or an error — never a panic — and any circuit
// it does produce must validate. (`go test` exercises the seed corpus;
// `go test -fuzz=FuzzParse` explores further.)
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];",
		"qreg q[3]; creg c[3]; measure q -> c;",
		"gate foo(a,b) x,y { rx(a*b) x; cx x,y; } qreg q[2]; foo(1,pi) q[0],q[1];",
		"qreg q[1]; rz(sin(pi/2)^2) q[0];",
		"if (c == 1) x q[0];",
		"qreg q[1]; u3(1,2,3) q[0]; barrier q; reset q[0];",
		"qreg q[2]; cu1(-pi/4) q[1],q[0];",
		"gate rec x { rec x; } qreg q[1]; rec q[0];",
		"qreg q[0];",
		"OPENQASM 9.9;",
		"include \"evil.inc\";",
		"qreg q[2]; swap q[0],q[0];",
		"qreg q[1]; h q[0] //trailing comment",
		"qreg q[1]; rz(1/0) q[0];",
		"\xff\xfe garbage \x00",
		"qreg q[1]; gphase(0.5);",
		"qreg q[33];",
		strings.Repeat("qreg r0[1];", 1) + strings.Repeat("h r0[0];", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		if c == nil {
			t.Fatal("nil circuit without error")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("parser produced an invalid circuit: %v", err)
		}
	})
}

// FuzzDumpRoundTrip: any circuit the parser accepts must survive
// Dump -> Parse unchanged: the same registers, and the same ops with the
// same parameter bits, conditions and classical bits.
func FuzzDumpRoundTrip(f *testing.F) {
	f.Add("qreg q[3]; creg c[2]; h q; cu3(0.1,0.2,0.3) q[0],q[2]; measure q[1] -> c[0]; if (c == 1) z q[2];")
	f.Add("qreg a[2]; qreg b[2]; cx a,b; rzz(0.5) a[0],b[1];")
	f.Add("qreg q[2]; creg a[1]; creg b[2]; measure q -> b; if (b == 3) reset q[0]; if (a == 1) measure q[1] -> a[0];")
	f.Add("gate g(t) x, y { rz(-t/3) x; cx x, y; } qreg q[2]; g(0.1e-3) q[0], q[1]; rx(-0.0) q[1];")
	for _, empty := range []string{"", "gphase(0.5);", "barrier;"} { // no qreg, no creg
		f.Add(empty)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		back, err := Parse(Dump(c))
		if err != nil {
			t.Fatalf("dump does not re-parse: %v\n%s", err, Dump(c))
		}
		if err := sameCircuit(c, back); err != nil {
			t.Fatalf("round trip changed the circuit: %v\n%s", err, Dump(c))
		}
	})
}
