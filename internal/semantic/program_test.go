package semantic

import (
	"fmt"
	"strings"
	"testing"
)

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []Value{
		String(""), String("hello"), String(strings.Repeat("x", 300)),
		Number(0), Number(-12.5), Number(1 << 52), Bool(true), Bool(false),
	}
	for _, v := range vals {
		enc := EncodeValue(v)
		if len(enc) == 0 {
			t.Fatalf("EncodeValue(%v) empty", v)
		}
		got, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("DecodeValue(%v): %v", v, err)
		}
		if !got.Equal(v) {
			t.Fatalf("round trip %v -> %v", v, got)
		}
	}
	for _, bad := range [][]byte{{}, {0}, {9, 1}, {2, 1, 2}, {3}, {3, 1, 2}} {
		if _, err := DecodeValue(bad); err == nil {
			t.Errorf("DecodeValue(%v) succeeded", bad)
		}
	}
}

func TestReqFieldNames(t *testing.T) {
	for f := ReqField(0); f < NumReqFields; f++ {
		name := f.String()
		got, ok := reqFieldByName(name)
		if !ok || got != f {
			t.Errorf("field %d name %q does not round trip", f, name)
		}
	}
	if fmt.Sprint(ReqField(99)) != "req(99)" {
		t.Error("out-of-range field name")
	}
}

// dumpStmts renders a parsed program as nested S-expressions, with
// each variable's resolved slot.
func dumpStmts(ss []Stmt) string {
	var parts []string
	for _, s := range ss {
		switch s := s.(type) {
		case *LetStmt:
			parts = append(parts, fmt.Sprintf("(set %s@%d %s)", s.Name, s.Slot, dumpExpr(s.X)))
		case *IfStmt:
			parts = append(parts, fmt.Sprintf("(if %s [%s] [%s])", dumpExpr(s.Cond), dumpStmts(s.Then), dumpStmts(s.Else)))
		case *ForStmt:
			parts = append(parts, fmt.Sprintf("(for %s@%d/%d %s %s [%s])", s.Name, s.Slot, s.LimitSlot,
				dumpExpr(s.From), dumpExpr(s.To), dumpStmts(s.Body)))
		case *AllowStmt:
			parts = append(parts, "(allow)")
		case *DenyStmt:
			parts = append(parts, fmt.Sprintf("(deny %s %s)", dumpExpr(s.Code), dumpExpr(s.Clause)))
		case *EmitStmt:
			parts = append(parts, fmt.Sprintf("(emit %q%s)", s.Topic, dumpArgs(s.Args)))
		case *StoreStmt:
			parts = append(parts, fmt.Sprintf("(store %s %s)", dumpExpr(s.Key), dumpExpr(s.Val)))
		}
	}
	return strings.Join(parts, " ")
}

func dumpArgs(xs []PExpr) string {
	var b strings.Builder
	for _, x := range xs {
		b.WriteString(" " + dumpExpr(x))
	}
	return b.String()
}

func dumpExpr(x PExpr) string {
	switch x := x.(type) {
	case *LitExpr:
		return x.V.String()
	case *VarExpr:
		return fmt.Sprintf("%s@%d", x.Name, x.Slot)
	case *ReqExpr:
		return x.Field.String()
	case *UnExpr:
		return fmt.Sprintf("(%s %s)", x.Op, dumpExpr(x.X))
	case *BinExpr:
		return fmt.Sprintf("(%s %s %s)", x.Op, dumpExpr(x.X), dumpExpr(x.Y))
	case *CallExpr:
		return fmt.Sprintf("(%s%s)", x.Fn, dumpArgs(x.Args))
	}
	return "?"
}

// TestProgramParseGrammar parses one program that uses every statement,
// operator, request field and builtin, and pins the tree it resolves to.
func TestProgramParseGrammar(t *testing.T) {
	src := `
let n = load("k")
if n == false { n = 0 } else if n > 3 { deny "invocations_exhausted" clauseof("invocations_exhausted") } else { n = n + 1 }
for i = 1 to agg { n = (n * 2 % 7) - -i / 1 }
store("k", not (n >= 1 and n <= 9 or n != 5 or n < 0))
emit("probe", layer, class, purpose, height, uses, "s" contains "x", true)
let c = evaluate("train", 2, 0, "", 3)
if c isa "ok" { allow }
deny c clauseof(c)
`
	prog := MustParseProgram(src)
	want := `(set n@0 (load "k")) ` +
		`(if (== n@0 false) [(set n@0 0)] [(if (> n@0 3) [(deny "invocations_exhausted" (clauseof "invocations_exhausted"))] [(set n@0 (+ n@0 1))])]) ` +
		`(for i@1/2 1 agg [(set n@0 (- (% (* n@0 2) 7) (/ (- i@1) 1)))]) ` +
		`(store "k" (not (or (or (and (>= n@0 1) (<= n@0 9)) (!= n@0 5)) (< n@0 0)))) ` +
		`(emit "probe" layer class purpose height uses (contains "s" "x") true) ` +
		`(set c@3 (evaluate "train" 2 0 "" 3)) ` +
		`(if (isa c@3 "ok") [(allow)] []) ` +
		`(deny c@3 (clauseof c@3))`
	if got := dumpStmts(prog.Stmts); got != want {
		t.Fatalf("parsed\n%s\nwant\n%s", got, want)
	}
	if prog.NumLocals != 4 || prog.Source != src {
		t.Fatalf("locals %d, source kept %v", prog.NumLocals, prog.Source == src)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseProgram accepted a bad program")
		}
	}()
	MustParseProgram("let")
}
