package vm

import (
	"fmt"
	"strconv"
	"strings"
)

// Disasm renders a compiled program as a stable, human-readable listing:
// the instruction stream followed by every pool that affects execution,
// with nested blocks and embedded expressions inlined recursively. The
// listing is a pure function of the program, which is what the golden
// tests and the compile→disasm→recompile stability check key on.
func Disasm(p *Program) string {
	var b strings.Builder
	writeProgram(&b, p, "")
	return b.String()
}

// DisasmExpr renders a compiled expression the same way.
func DisasmExpr(p *ExprProg) string {
	var b strings.Builder
	writeExpr(&b, p, "")
	return b.String()
}

func writeProgram(b *strings.Builder, p *Program, ind string) {
	fmt.Fprintf(b, "%sprogram regs=%d", ind, p.NRegs)
	if p.EndAtBracket {
		b.WriteString(" atbracket")
	}
	if p.Slots != (SlotCounts{}) {
		fmt.Fprintf(b, " slots{cmds=%d vars=%d specs=%d}",
			p.Slots.Cmds, p.Slots.Vars, p.Slots.Specs)
	}
	b.WriteByte('\n')
	for pc, in := range p.Code {
		fmt.Fprintf(b, "%s  %04d %-8s %s\n", ind, pc, in.Op, operands(p, in))
	}
	for k, v := range p.Consts {
		fmt.Fprintf(b, "%sconst c%d = %s\n", ind, k, valueString(v))
	}
	for k, n := range p.Names {
		fmt.Fprintf(b, "%sname n%d = %q\n", ind, k, n)
	}
	for k, w := range p.LitWords {
		fmt.Fprintf(b, "%swords w%d = %s\n", ind, k, quoteList(w))
	}
	for k, a := range p.Aux {
		fmt.Fprintf(b, "%saux a%d = name=%q lit=%d", ind, k, a.Name, a.LitIdx)
		if a.BracketOK {
			b.WriteString(" bracketok")
		}
		fmt.Fprintf(b, " cache=%d spec=%d", a.CacheSlot, a.SpecSlot)
		if a.NArgs > 0 {
			fmt.Fprintf(b, " args=r%d#%d", a.Args, a.NArgs)
		}
		b.WriteByte('\n')
	}
	for k, f := range p.Foreach {
		fmt.Fprintf(b, "%sforeach f%d = list=r%d ctr=r%d var=n%d slot=%d\n",
			ind, k, f.List, f.Counter, f.Name, f.VarSlot)
	}
	for k, bl := range p.Blocks {
		fmt.Fprintf(b, "%sblock b%d src=%q\n", ind, k, bl.Src)
		if bl.Prog != nil {
			writeProgram(b, bl.Prog, ind+"  ")
		}
	}
	for k, e := range p.Exprs {
		fmt.Fprintf(b, "%sexpr e%d\n", ind, k)
		writeExpr(b, e, ind+"  ")
	}
}

func operands(p *Program, in Instr) string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = c%d", in.Dst, in.A)
	case OpVarRead:
		if in.C != 0 {
			return fmt.Sprintf("r%d = $n%d slot=%d list", in.Dst, in.A, in.B)
		}
		return fmt.Sprintf("r%d = $n%d slot=%d", in.Dst, in.A, in.B)
	case OpArrRead:
		return fmt.Sprintf("r%d = $n%d(n%d) slot=%d", in.Dst, in.A, in.B, in.C)
	case OpConcat:
		return fmt.Sprintf("r%d = r%d..r%d", in.Dst, in.A, in.A+in.B-1)
	case OpBracket:
		return fmt.Sprintf("r%d = b%d", in.Dst, in.A)
	case OpInvoke:
		if in.B == 0 {
			return fmt.Sprintf("a%d lit", in.Dst)
		}
		return fmt.Sprintf("a%d args=r%d#%d", in.Dst, in.A, in.B)
	case OpCmd:
		return fmt.Sprintf("host#%d", in.A)
	case OpJump:
		return fmt.Sprintf("-> %04d", in.A)
	case OpSpecEnter:
		return fmt.Sprintf("a%d generic-> %04d", in.Dst, in.A)
	case OpTestExpr:
		return fmt.Sprintf("a%d e%d false-> %04d", in.Dst, in.A, in.B)
	case OpIfBody:
		return fmt.Sprintf("a%d b%d join-> %04d", in.Dst, in.A, in.B)
	case OpLoopBody:
		return fmt.Sprintf("a%d b%d back-> %04d", in.Dst, in.A, in.B)
	case OpForeachNext:
		return fmt.Sprintf("a%d f%d done-> %04d", in.Dst, in.A, in.B)
	case OpSpecDone:
		return fmt.Sprintf("a%d", in.Dst)
	case OpSetVar:
		return fmt.Sprintf("a%d $n%d = r%d slot=%d", in.Dst, in.A, in.B, in.C)
	case OpGetVar:
		return fmt.Sprintf("a%d $n%d slot=%d", in.Dst, in.A, in.C)
	case OpIncr:
		if in.B < 0 {
			return fmt.Sprintf("a%d $n%d += 1 slot=%d", in.Dst, in.A, in.C)
		}
		return fmt.Sprintf("a%d $n%d += c%d slot=%d", in.Dst, in.A, in.B, in.C)
	case OpExprCmd:
		return fmt.Sprintf("a%d e%d", in.Dst, in.A)
	case OpLindex, OpLlength, OpSplit:
		return fmt.Sprintf("a%d", in.Dst)
	default:
		return fmt.Sprintf("?%d,%d,%d,%d", in.Dst, in.A, in.B, in.C)
	}
}

func writeExpr(b *strings.Builder, p *ExprProg, ind string) {
	if !p.Lowered() {
		fmt.Fprintf(b, "%sexpr ast src=%q\n", ind, p.Src)
		return
	}
	fmt.Fprintf(b, "%sexpr regs=%d ctl=%d src=%q\n", ind, p.NRegs, p.NCtl, p.Src)
	for pc, in := range p.Code {
		fmt.Fprintf(b, "%s  %04d %-8s %s\n", ind, pc, in.Op, eoperands(in))
	}
	for k, v := range p.Consts {
		fmt.Fprintf(b, "%sconst c%d = %s\n", ind, k, valueString(v))
	}
	for k, n := range p.Names {
		fmt.Fprintf(b, "%sname n%d = %q\n", ind, k, n)
	}
	for k, f := range p.Funcs {
		fmt.Fprintf(b, "%sfunc m%d = %q\n", ind, k, f)
	}
	for k, bl := range p.Blocks {
		fmt.Fprintf(b, "%sblock b%d src=%q\n", ind, k, bl.Src)
		if bl.Prog != nil {
			writeProgram(b, bl.Prog, ind+"  ")
		}
	}
}

func eoperands(in EInstr) string {
	switch op := in.Op; {
	case op == EConst:
		return fmt.Sprintf("r%d = c%d", in.Dst, in.A)
	case op == EVar:
		return fmt.Sprintf("r%d = $n%d slot=%d", in.Dst, in.A, in.B)
	case op == EBracket:
		skip := ""
		if in.B == 0 {
			skip = " noskip"
		}
		return fmt.Sprintf("r%d = b%d%s", in.Dst, in.A, skip)
	case op == EUnary:
		return fmt.Sprintf("r%d = %s r%d", in.Dst, string(byte(in.B)), in.A)
	case op >= EAdd && op <= EGe:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, BinOpOf(op).Name(), in.B)
	case op == EAndTest || op == EOrTest || op == ETernTest:
		return fmt.Sprintf("r%d", in.A)
	case op == EAndEnd || op == EOrEnd || op == ETernEnd:
		return fmt.Sprintf("r%d = r%d, r%d", in.Dst, in.A, in.B)
	case op == ETernElse:
		return ""
	case op == EFunc:
		return fmt.Sprintf("r%d = m%d(r%d)", in.Dst, in.B, in.A)
	case op == EEnd:
		return fmt.Sprintf("r%d", in.A)
	default:
		return fmt.Sprintf("?%d,%d,%d", in.Dst, in.A, in.B)
	}
}

func valueString(v Value) string {
	switch v.Kind() {
	case KInt:
		return "int " + strconv.FormatInt(v.Int(), 10)
	case KFloat:
		return "float " + FormatFloat(v.Float())
	case KList:
		return "list " + quoteList(v.List().Items)
	default:
		return "str " + strconv.Quote(v.Text())
	}
}

func quoteList(items []string) string {
	parts := make([]string, len(items))
	for k, s := range items {
		parts[k] = strconv.Quote(s)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
