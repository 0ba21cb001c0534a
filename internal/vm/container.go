package vm

import (
	"bytes"
	"fmt"
	"math"

	"pds2/internal/crypto"
	"pds2/internal/semantic"
)

// The pds2/bytecode/v1 container is the deployable artifact format:
//
//	magic    "PDS2BC"                     6 bytes
//	version  u16                          (1)
//	nlocals  u8
//	nconsts  u16, then tagged constants   (1=string u16+bytes,
//	                                       2=number 8-byte IEEE bits,
//	                                       3=bool 1 byte)
//	codelen  u32, then code
//	srclen   u32, then embedded source
//	checksum crypto.Digest over everything above
//
// Decode rejects malformed frames the way chainstore rejects bad
// segments: size caps first, checksum second, then full static
// verification of the code. The embedded source makes artifacts
// self-describing and lets deployPolicy re-compile and require
// byte-identical output (VerifySource), so anything executing on-chain
// provably corresponds to auditable source text.

// FormatName is the human-readable name of the container format,
// printed by tooling (pds2 compile) and documentation.
const FormatName = "pds2/bytecode/v1"

// Container limits. Oversized frames are rejected before any parsing.
const (
	Version     = 1
	MaxConsts   = 4096
	MaxCodeSize = 1 << 16
	MaxSrcSize  = 1 << 15
	MaxArtifact = 1 << 17
	// MaxStack bounds the operand stack. Compiled code cannot reach it
	// (semantic.MaxParseDepth bounds expression nesting well below),
	// so it only trips on hand-forged bytecode.
	MaxStack = 512
)

var magic = []byte("PDS2BC")

// Module is a decoded bytecode program.
type Module struct {
	NumLocals int
	Consts    []semantic.Value
	Code      []byte
	Source    string
}

// Checksum returns the content digest of the encoded module.
func (m *Module) Checksum() crypto.Digest {
	return crypto.HashBytes(m.encodeBody())
}

func (m *Module) encodeBody() []byte {
	var buf bytes.Buffer
	buf.Write(magic)
	buf.WriteByte(byte(Version >> 8))
	buf.WriteByte(byte(Version))
	buf.WriteByte(byte(m.NumLocals))
	buf.WriteByte(byte(len(m.Consts) >> 8))
	buf.WriteByte(byte(len(m.Consts)))
	for _, v := range m.Consts {
		switch v.Kind {
		case semantic.KindString:
			buf.WriteByte(1)
			buf.WriteByte(byte(len(v.S) >> 8))
			buf.WriteByte(byte(len(v.S)))
			buf.WriteString(v.S)
		case semantic.KindNumber:
			buf.WriteByte(2)
			bits := math.Float64bits(v.N)
			for i := 7; i >= 0; i-- {
				buf.WriteByte(byte(bits >> (8 * i)))
			}
		default:
			buf.WriteByte(3)
			if v.B {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
	}
	writeU32(&buf, len(m.Code))
	buf.Write(m.Code)
	writeU32(&buf, len(m.Source))
	buf.WriteString(m.Source)
	return buf.Bytes()
}

func writeU32(buf *bytes.Buffer, v int) {
	buf.WriteByte(byte(v >> 24))
	buf.WriteByte(byte(v >> 16))
	buf.WriteByte(byte(v >> 8))
	buf.WriteByte(byte(v))
}

// Encode serializes the module as a pds2/bytecode/v1 artifact.
func (m *Module) Encode() []byte {
	body := m.encodeBody()
	sum := crypto.HashBytes(body)
	return append(body, sum[:]...)
}

// decoder reads the container's fields in order. It keeps its first
// error: after a failed read every later read returns zero bytes and
// consumes nothing, so Decode checks the error once, before any value
// that a failed read would misreport.
type decoder struct {
	b   []byte
	pos int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.b)-d.pos {
		d.err = fmt.Errorf("vm: truncated artifact at byte %d", d.pos)
		return nil
	}
	out := d.b[d.pos : d.pos+n]
	d.pos += n
	return out
}

// uintN reads an n-byte big-endian unsigned integer. It stays unsigned:
// callers bound a length prefix before converting it, so it cannot wrap
// negative on a 32-bit int.
func (d *decoder) uintN(n int) uint64 {
	var v uint64
	for _, b := range d.take(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

// Decode parses and statically verifies a pds2/bytecode/v1 artifact.
func Decode(artifact []byte) (*Module, error) {
	if len(artifact) > MaxArtifact {
		return nil, fmt.Errorf("vm: artifact exceeds %d bytes", MaxArtifact)
	}
	if len(artifact) < len(magic)+2+crypto.HashSize {
		return nil, fmt.Errorf("vm: artifact too short")
	}
	body, sumRaw := artifact[:len(artifact)-crypto.HashSize], artifact[len(artifact)-crypto.HashSize:]
	if sum := crypto.HashBytes(body); !bytes.Equal(sum[:], sumRaw) {
		return nil, fmt.Errorf("vm: artifact checksum mismatch")
	}
	// The length check above guarantees the magic and version bytes.
	d := &decoder{b: body}
	if !bytes.Equal(d.take(len(magic)), magic) {
		return nil, fmt.Errorf("vm: bad magic")
	}
	if ver := d.uintN(2); ver != Version {
		return nil, fmt.Errorf("vm: unsupported bytecode version %d", ver)
	}
	m := &Module{NumLocals: int(d.uintN(1))}
	nconsts := d.uintN(2)
	if nconsts > MaxConsts {
		return nil, fmt.Errorf("vm: constant pool exceeds %d entries", MaxConsts)
	}
	m.Consts = make([]semantic.Value, nconsts)
	for i := range m.Consts {
		tag := d.uintN(1)
		if d.err != nil {
			return nil, d.err
		}
		switch tag {
		case 1:
			m.Consts[i] = semantic.String(string(d.take(int(d.uintN(2)))))
		case 2:
			m.Consts[i] = semantic.Number(math.Float64frombits(d.uintN(8)))
		case 3:
			m.Consts[i] = semantic.Bool(d.uintN(1) != 0)
		default:
			return nil, fmt.Errorf("vm: unknown constant tag %d at byte %d", tag, d.pos-1)
		}
	}
	codeLen := d.uintN(4)
	if codeLen > MaxCodeSize {
		return nil, fmt.Errorf("vm: code exceeds %d bytes", MaxCodeSize)
	}
	m.Code = d.take(int(codeLen))
	srcLen := d.uintN(4)
	if srcLen > MaxSrcSize {
		return nil, fmt.Errorf("vm: source exceeds %d bytes", MaxSrcSize)
	}
	m.Source = string(d.take(int(srcLen)))
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("vm: %d trailing bytes in artifact", len(body)-d.pos)
	}
	if err := Verify(m); err != nil {
		return nil, err
	}
	return m, nil
}

// Verify statically checks module code: instruction boundaries, operand
// bounds, jump discipline (forward-only jumps, backward-only loop
// edges, targets on instruction boundaries), and a halting final
// instruction. Verified code cannot read outside the constant pool or
// locals, cannot jump into the middle of an instruction, and — because
// only OpLoop moves the pc backward and the interpreter counts those —
// always terminates.
func Verify(m *Module) error {
	if m.NumLocals > semantic.MaxLocals {
		return fmt.Errorf("vm: %d locals exceeds %d", m.NumLocals, semantic.MaxLocals)
	}
	if len(m.Code) == 0 {
		return fmt.Errorf("vm: empty code")
	}
	if len(m.Code) > MaxCodeSize {
		return fmt.Errorf("vm: code exceeds %d bytes", MaxCodeSize)
	}
	if len(m.Consts) > MaxConsts {
		return fmt.Errorf("vm: constant pool exceeds %d entries", MaxConsts)
	}
	boundary := make([]bool, len(m.Code)+1)
	type jmp struct {
		at     int
		target int
		back   bool
	}
	var jumps []jmp
	lastOp := opInvalid
	for pc := 0; pc < len(m.Code); {
		boundary[pc] = true
		op := Op(m.Code[pc])
		w := operandWidth(op)
		if w < 0 {
			return fmt.Errorf("vm: invalid opcode 0x%02x at %d", byte(op), pc)
		}
		if pc+1+w > len(m.Code) {
			return fmt.Errorf("vm: truncated operand at %d", pc)
		}
		switch op {
		case OpPush:
			idx := int(m.Code[pc+1])<<8 | int(m.Code[pc+2])
			if idx >= len(m.Consts) {
				return fmt.Errorf("vm: constant %d out of range at %d", idx, pc)
			}
		case OpLoadLocal, OpStoreLocal:
			if int(m.Code[pc+1]) >= m.NumLocals {
				return fmt.Errorf("vm: local %d out of range at %d", m.Code[pc+1], pc)
			}
		case OpLoadReq:
			if int(m.Code[pc+1]) >= int(semantic.NumReqFields) {
				return fmt.Errorf("vm: request field %d out of range at %d", m.Code[pc+1], pc)
			}
		case OpEmit:
			idx := int(m.Code[pc+1])<<8 | int(m.Code[pc+2])
			if idx >= len(m.Consts) {
				return fmt.Errorf("vm: constant %d out of range at %d", idx, pc)
			}
			if m.Consts[idx].Kind != semantic.KindString {
				return fmt.Errorf("vm: emit topic constant %d is not a string at %d", idx, pc)
			}
			if int(m.Code[pc+3]) > semantic.MaxEmitArgs {
				return fmt.Errorf("vm: emit arity %d exceeds %d at %d", m.Code[pc+3], semantic.MaxEmitArgs, pc)
			}
		case OpJump, OpJumpFalse, OpJumpTrue, OpLoop:
			target := int(m.Code[pc+1])<<8 | int(m.Code[pc+2])
			jumps = append(jumps, jmp{at: pc, target: target, back: op == OpLoop})
		}
		lastOp = op
		pc += 1 + w
	}
	switch lastOp {
	case OpAllow, OpDeny, OpLoop:
		// Execution cannot fall off the end.
	default:
		return fmt.Errorf("vm: final instruction %s does not halt", lastOp)
	}
	for _, j := range jumps {
		if j.target >= len(m.Code) || !boundary[j.target] {
			return fmt.Errorf("vm: jump target %d at %d is not an instruction", j.target, j.at)
		}
		if j.back && j.target > j.at {
			return fmt.Errorf("vm: loop edge at %d jumps forward to %d", j.at, j.target)
		}
		if !j.back && j.target <= j.at {
			return fmt.Errorf("vm: jump at %d is not strictly forward (target %d)", j.at, j.target)
		}
	}
	return nil
}

// VerifySource recompiles the embedded source and requires byte-exact
// equality with the module — the deploy-time proof that on-chain
// bytecode corresponds to its auditable source.
func VerifySource(m *Module) error {
	ref, err := CompileSource(m.Source)
	if err != nil {
		return fmt.Errorf("vm: embedded source does not compile: %w", err)
	}
	if ref.NumLocals != m.NumLocals || len(ref.Consts) != len(m.Consts) ||
		!bytes.Equal(ref.Code, m.Code) {
		return fmt.Errorf("vm: bytecode does not match embedded source")
	}
	for i := range ref.Consts {
		if !ref.Consts[i].Equal(m.Consts[i]) {
			return fmt.Errorf("vm: bytecode does not match embedded source")
		}
	}
	return nil
}

// BuildSource compiles source straight to an encoded artifact.
func BuildSource(src string) ([]byte, error) {
	m, err := CompileSource(src)
	if err != nil {
		return nil, err
	}
	return m.Encode(), nil
}

// Disasm renders the code section as one instruction per line.
func Disasm(m *Module) string {
	var buf bytes.Buffer
	for pc := 0; pc < len(m.Code); {
		op := Op(m.Code[pc])
		w := operandWidth(op)
		if w < 0 || pc+1+w > len(m.Code) {
			fmt.Fprintf(&buf, "%04d\t??\n", pc)
			break
		}
		fmt.Fprintf(&buf, "%04d\t%s", pc, op)
		switch op {
		case OpPush:
			idx := int(m.Code[pc+1])<<8 | int(m.Code[pc+2])
			fmt.Fprintf(&buf, "\t%d\t; %s", idx, m.Consts[idx])
		case OpLoadLocal, OpStoreLocal, OpLoadReq:
			fmt.Fprintf(&buf, "\t%d", m.Code[pc+1])
			if op == OpLoadReq {
				fmt.Fprintf(&buf, "\t; %s", semantic.ReqField(m.Code[pc+1]))
			}
		case OpJump, OpJumpFalse, OpJumpTrue, OpLoop:
			fmt.Fprintf(&buf, "\t%d", int(m.Code[pc+1])<<8|int(m.Code[pc+2]))
		case OpEmit:
			idx := int(m.Code[pc+1])<<8 | int(m.Code[pc+2])
			fmt.Fprintf(&buf, "\t%d args\t; topic %s", m.Code[pc+3], m.Consts[idx])
		}
		buf.WriteByte('\n')
		pc += 1 + w
	}
	return buf.String()
}
