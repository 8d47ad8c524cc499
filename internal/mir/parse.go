package mir

import (
	"fmt"
	"strconv"
	"strings"

	"outliner/internal/isa"
)

// Parse reads the textual MIR format produced by Program.String:
//
//	func @name module "m" {
//	entry:
//	  ORRXrs $x0, $xzr, $x20
//	  BL @swift_release
//	  RET
//	}
//	global @gTable module "m" = [1, 2, 3]
//
// It is used by tests and by the cmd/outline tool, which hands the parsed
// program to pipeline.BuildMIR — the whole-program build's post-link tail,
// playing the role of `llc -outline-repeat-count=N` from the paper's artifact.
func Parse(src string) (*Program, error) {
	p := NewProgram()
	var cur *Function
	var curBlock *Block
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("mir: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "func "):
			if cur != nil {
				return nil, fail("nested func")
			}
			f, err := parseFuncHeader(line)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur = f
			curBlock = nil
		case line == "}":
			if cur == nil {
				return nil, fail("unmatched }")
			}
			p.AddFunc(cur)
			cur, curBlock = nil, nil
		case strings.HasPrefix(line, "global "):
			g, err := parseGlobal(line)
			if err != nil {
				return nil, fail("%v", err)
			}
			p.AddGlobal(g)
		case strings.HasSuffix(line, ":"):
			if cur == nil {
				return nil, fail("label outside func")
			}
			curBlock = &Block{Label: strings.TrimSuffix(line, ":")}
			cur.Blocks = append(cur.Blocks, curBlock)
		default:
			if curBlock == nil {
				return nil, fail("instruction outside block: %q", line)
			}
			in, err := ParseInst(line)
			if err != nil {
				return nil, fail("%v", err)
			}
			curBlock.Insts = append(curBlock.Insts, in)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("mir: unterminated func @%s", cur.Name)
	}
	return p, nil
}

func parseFuncHeader(line string) (*Function, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "func"))
	if !strings.HasSuffix(rest, "{") {
		return nil, fmt.Errorf("func header must end with {")
	}
	rest = strings.TrimSpace(strings.TrimSuffix(rest, "{"))
	fields := strings.Fields(rest)
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "@") {
		return nil, fmt.Errorf("func header needs @name")
	}
	f := &Function{Name: strings.TrimPrefix(fields[0], "@")}
	for i := 1; i < len(fields); i++ {
		switch {
		case fields[i] == "module" && i+1 < len(fields):
			i++
			mod, err := strconv.Unquote(fields[i])
			if err != nil {
				return nil, fmt.Errorf("bad module name %s", fields[i])
			}
			f.Module = mod
		case fields[i] == "outlined":
			f.Outlined = true
		default:
			return nil, fmt.Errorf("unexpected token %q in func header", fields[i])
		}
	}
	return f, nil
}

func parseGlobal(line string) (*Global, error) {
	rest := strings.TrimSpace(strings.TrimPrefix(line, "global"))
	eq := strings.Index(rest, "=")
	if eq < 0 {
		return nil, fmt.Errorf("global needs =")
	}
	head, body := strings.TrimSpace(rest[:eq]), strings.TrimSpace(rest[eq+1:])
	fields := strings.Fields(head)
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "@") {
		return nil, fmt.Errorf("global needs @name")
	}
	g := &Global{Name: strings.TrimPrefix(fields[0], "@")}
	if len(fields) >= 3 && fields[1] == "module" {
		mod, err := strconv.Unquote(fields[2])
		if err != nil {
			return nil, fmt.Errorf("bad module name %s", fields[2])
		}
		g.Module = mod
	}
	if !strings.HasPrefix(body, "[") || !strings.HasSuffix(body, "]") {
		return nil, fmt.Errorf("global body must be [w0, w1, ...]")
	}
	body = strings.TrimSpace(body[1 : len(body)-1])
	if body == "" {
		return g, nil
	}
	for _, tok := range strings.Split(body, ",") {
		w, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad word %q", tok)
		}
		g.Words = append(g.Words, w)
	}
	return g, nil
}

// ParseInst parses a single instruction in the format isa.Inst.AppendText
// prints. It reads the operands of the opcode's row of the opcode table in
// order, as the printer writes them, so every operand the printer writes is
// one it reads back. BAD, which the printer writes for an opcode outside the
// table, does not parse.
func ParseInst(line string) (isa.Inst, error) {
	var in isa.Inst
	mnemonic, rest, _ := strings.Cut(line, " ")
	name, suffix, hasSuffix := strings.Cut(mnemonic, ".")
	op, ok := isa.OpFromName(name)
	operands := op.Info().Operands
	// Only a row that leads with its condition (Bcc) takes a ".cond" suffix.
	leadCond := len(operands) > 0 && operands[0].Slot == isa.SlotCond
	switch {
	case !ok || hasSuffix && !leadCond:
		return in, fmt.Errorf("unknown opcode %q", mnemonic)
	case op == isa.BAD:
		return in, fmt.Errorf("unhandled opcode %q", mnemonic)
	}
	in.Op = op
	if leadCond {
		operands = operands[1:]
		if hasSuffix {
			c, err := parseCond(suffix)
			if err != nil {
				return in, err
			}
			in.Cond = c
		}
	}
	var toks []string
	if rest = strings.TrimSpace(rest); rest != "" {
		toks = strings.Split(rest, ",")
	}
	for i, o := range operands {
		if i >= len(toks) {
			return in, fmt.Errorf("%s: missing operand %d", name, i)
		}
		tok := strings.TrimSpace(toks[i])
		var err error
		switch o.Slot {
		case isa.SlotImm:
			if !strings.HasPrefix(tok, "#") {
				return in, fmt.Errorf("%s: expected immediate, got %q", name, tok)
			}
			in.Imm, err = strconv.ParseInt(tok[1:], 10, 64)
		case isa.SlotSym:
			if !strings.HasPrefix(tok, "@") {
				return in, fmt.Errorf("%s: expected @symbol, got %q", name, tok)
			}
			in.Sym = tok[1:]
		case isa.SlotCond:
			in.Cond, err = parseCond(tok)
		default:
			*in.RegField(o.Slot), err = parseReg(tok)
		}
		if err != nil {
			return in, err
		}
	}
	if len(toks) != len(operands) {
		return in, fmt.Errorf("%s: %d extra operand(s)", name, len(toks)-len(operands))
	}
	return in, nil
}

func parseReg(tok string) (isa.Reg, error) {
	if !strings.HasPrefix(tok, "$") {
		return 0, fmt.Errorf("expected $register, got %q", tok)
	}
	name := tok[1:]
	switch name {
	case "sp":
		return isa.SP, nil
	case "xzr":
		return isa.XZR, nil
	case "x29":
		return isa.FP, nil
	case "x30":
		return isa.LR, nil
	}
	if strings.HasPrefix(name, "x") {
		n, err := strconv.Atoi(name[1:])
		if err == nil && n >= 0 && n <= 30 {
			return isa.X0 + isa.Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", tok)
}

func parseCond(tok string) (isa.Cond, error) {
	switch tok {
	case "eq":
		return isa.EQ, nil
	case "ne":
		return isa.NE, nil
	case "lt":
		return isa.LT, nil
	case "le":
		return isa.LE, nil
	case "gt":
		return isa.GT, nil
	case "ge":
		return isa.GE, nil
	}
	return 0, fmt.Errorf("bad condition %q", tok)
}
