package tcl

import (
	"reflect"
	"strconv"
	"strings"

	"repro/internal/tcl/vm"
)

// The bytecode executor: the interpreter loop for vm.Program and
// vm.ExprProg, plus the inline-cache runtime the compiled slots index.
// Observable behavior — results, error strings, ErrorInfo notes, step
// charges, trace/dispatch-hook events — matches the classic evaluator's
// at every point; the differential conformance matrix and the
// FuzzVMEquivalence harness hold that equality byte for byte. Only Trace
// forces the generic path: a DispatchHook is served from the fast paths
// through the same stamp/report pair EvalWords uses.
//
// Alongside the Result string, program execution threads an optional
// native value for the final command result (numOK below). The channel
// carries only KInt values whose canonical rendering equals the Result
// string, so a consumer may substitute the native value for the string
// without changing any observable rendering or numeric classification.

// EvalMode selects the evaluation engine behind EvalScript and expr.
type EvalMode uint8

const (
	// EvalVM is the default: scripts and expressions are compiled once,
	// lowered to register bytecode with inline caches and native numeric
	// values, and memoized by source text.
	EvalVM EvalMode = iota
	// EvalClassic re-parses every script on every evaluation — the frozen
	// referee the vm is proven against, and the evaluator the vm hands
	// whatever it does not lower.
	EvalClassic
)

func (m EvalMode) String() string {
	if m == EvalClassic {
		return "classic"
	}
	return "vm"
}

// ParseEvalMode maps the -evalmode flag spellings to a mode.
func ParseEvalMode(s string) (EvalMode, bool) {
	switch s {
	case "classic":
		return EvalClassic, true
	case "vm":
		return EvalVM, true
	}
	return EvalVM, false
}

// SetEvalMode selects the evaluation engine. The vm's program caches
// survive a switch, so state and compiled programs carry across modes.
func (i *Interp) SetEvalMode(m EvalMode) { i.evalMode = m }

// EvalMode reports the active evaluation engine.
func (i *Interp) EvalMode() EvalMode { return i.evalMode }

// cmdCache is one command-dispatch inline cache: the resolution of name
// at cmdEpoch. kind: 0 = unknown name, 1 = command, 2 = procedure.
type cmdCache struct {
	epoch uint64
	name  string
	kind  uint8
	cmd   Command
	proc  *Proc
}

// varCache is one variable inline cache. Under a proc frame it holds the
// name's slot in the frame's layout, which every frame of that layout
// binds the same way, so it survives from call to call; at the global
// level it holds the resolved target. Entries refill when the layout
// differs or varEpoch has moved; no negative results are cached, so
// creating variables never needs invalidation.
type varCache struct {
	epoch  uint64
	layout *procLayout // nil: the global frame
	slot   int32
	v      *variable // the global frame's target
}

// specCache memoizes the canonical-builtin guard at cmdEpoch.
type specCache struct {
	epoch uint64
	ok    bool
}

// vmHost is one OpCmd fallback: a command the vm did not lower, located by
// the source text it was compiled from, the offset where the classic
// parser starts it, and whether it sits inside a [bracket] substitution.
type vmHost struct {
	src       string
	start     int
	bracketed bool
}

// vmRun is the mutable runtime state of one cached program tree: the
// OpCmd host table and the inline-cache arrays its slots index.
type vmRun struct {
	hosts []vmHost
	cmds  []cmdCache
	vars  []varCache
	specs []specCache
}

func newVMRun(hosts []vmHost, sc vm.SlotCounts) vmRun {
	return vmRun{
		hosts: hosts,
		cmds:  make([]cmdCache, sc.Cmds),
		vars:  make([]varCache, sc.Vars),
		specs: make([]specCache, sc.Specs),
	}
}

// vmEntry is one vm script-cache entry.
type vmEntry struct {
	prog *vm.Program
	run  vmRun
}

// vmExprEntry is one vm expression-cache entry.
type vmExprEntry struct {
	prog *vm.ExprProg
	run  vmRun
}

// canonicalBuiltins maps the specialized command names to the code
// pointers of their canonical implementations; the specialization guard
// compares the live binding against these so rename/proc shadowing
// reverts specialized sites to generic dispatch.
var canonicalBuiltins map[string]uintptr

func init() {
	canonicalBuiltins = map[string]uintptr{
		"set":     reflect.ValueOf(Command(cmdSet)).Pointer(),
		"incr":    reflect.ValueOf(Command(cmdIncr)).Pointer(),
		"expr":    reflect.ValueOf(Command(cmdExpr)).Pointer(),
		"if":      reflect.ValueOf(Command(cmdIf)).Pointer(),
		"while":   reflect.ValueOf(Command(cmdWhile)).Pointer(),
		"foreach": reflect.ValueOf(Command(cmdForeach)).Pointer(),
		"lindex":  reflect.ValueOf(Command(cmdLindex)).Pointer(),
		"llength": reflect.ValueOf(Command(cmdLlength)).Pointer(),
		"split":   reflect.ValueOf(Command(cmdSplit)).Pointer(),
	}
}

// vmEvalScript is EvalScript's vm-mode body (depth and step accounting
// already done by the caller). A one-entry front cache short-circuits
// the LRU on the common re-evaluate-the-same-text path.
func (i *Interp) vmEvalScript(script string) Result {
	e := i.vmFront
	if e != nil && i.vmFrontKey == script {
		i.vmFrontHits++
	} else {
		var ok bool
		e, ok = i.vmCache.Get(script)
		if !ok {
			prog, hosts := lowerRootScript(compileScript(script, false))
			e = &vmEntry{prog: prog, run: newVMRun(hosts, prog.Slots)}
			i.vmCache.Put(script, e)
		}
		i.vmFront, i.vmFrontKey = e, script
	}
	res, _, num, numOK := i.runProgram(&e.run, e.prog)
	if numOK && num.Kind() == vm.KList {
		res.Value = num.Text()
	}
	return res
}

// vmExprValue is exprValue's vm-mode body. An expression that did not
// lower runs on the classic evaluator.
func (i *Interp) vmExprValue(text string) (exprValue, Result) {
	e := i.vmExprFront
	if e == nil || i.vmExprFrontKey != text {
		var ok bool
		e, ok = i.vmExprCache.Get(text)
		if !ok {
			prog, hosts, slots := lowerRootExpr(text)
			e = &vmExprEntry{prog: prog, run: newVMRun(hosts, slots)}
			i.vmExprCache.Put(text, e)
		}
		i.vmExprFront, i.vmExprFrontKey = e, text
	}
	if !e.prog.Lowered() {
		return i.exprValueUncached(text)
	}
	v, res := i.runExprProg(&e.run, e.prog)
	if res.Code != OK {
		return exprValue{}, res
	}
	return exprValueOf(v), Ok("")
}

func exprValueOf(v vm.Value) exprValue {
	switch v.Kind() {
	case vm.KInt:
		return intVal(v.Int())
	case vm.KFloat:
		return floatVal(v.Float())
	default:
		return strVal(v.Text())
	}
}

// --- register stack -----------------------------------------------------

// pushRegs opens a register window of n values on the shared stack and
// returns its base offset. Windows are never zeroed: the compiler
// guarantees every register read is dominated by a write in the same
// command (or expression).
func (i *Interp) pushRegs(n int32) int {
	base := len(i.vmRegs)
	need := base + int(n)
	if need <= cap(i.vmRegs) {
		i.vmRegs = i.vmRegs[:need]
	} else {
		grown := make([]vm.Value, need, need*2+16)
		copy(grown, i.vmRegs)
		i.vmRegs = grown
	}
	return base
}

// pushArgs substitutes the words of one command onto the argument
// stack and returns them; popArgs(base) releases them after dispatch.
func (i *Interp) pushArgs(words []vm.Value) []string {
	base := len(i.vmArgs)
	for k := range words {
		i.vmArgs = append(i.vmArgs, words[k].Text())
	}
	return i.vmArgs[base:len(i.vmArgs):len(i.vmArgs)]
}

func (i *Interp) popArgs(base int) {
	clear(i.vmArgs[base:])
	i.vmArgs = i.vmArgs[:base]
}

// runProgram executes a lowered script, mirroring parser.run's contract:
// the Result plus whether execution ended on a terminating ']', plus the
// native-value channel for the final result (see the package comment
// above). A native list result may leave the Result string unrendered;
// a consumer that needs the string renders the native value.
func (i *Interp) runProgram(r *vmRun, p *vm.Program) (Result, bool, vm.Value, bool) {
	base := i.pushRegs(p.NRegs)
	res, atBracket, num, numOK := i.execProgram(r, p, base)
	i.vmRegs = i.vmRegs[:base]
	return res, atBracket, num, numOK
}

// --- inline-cache runtime -----------------------------------------------

// cached returns the variable c resolved when that entry still holds in
// frame fr and binds an unlinked variable there; nil sends the caller to
// vmVar. It is small enough to inline into the executors' hot paths.
func (c *varCache) cached(epoch uint64, fr *frame) *variable {
	if c.epoch != epoch || c.layout != fr.layout {
		return nil
	}
	if fr.layout == nil {
		return c.v
	}
	if int(c.slot) < len(fr.slots) {
		if v := fr.slots[c.slot]; v != nil && v.link == nil {
			return v
		}
	}
	return nil
}

// vmVar resolves name's target in the current frame through a cache
// slot. An unbound name yields nil, or a new empty variable when create
// is set.
func (i *Interp) vmVar(r *vmRun, slot int32, name string, create bool) *variable {
	c := &r.vars[slot]
	fr := i.current()
	if t := c.cached(i.varEpoch, fr); t != nil {
		return t
	}
	// A proc frame's entry still names the slot when the slot is unbound
	// or holds a link.
	if c.epoch == i.varEpoch && c.layout == fr.layout && fr.layout != nil && int(c.slot) < len(fr.slots) {
		return i.slotTarget(fr, c.slot, create)
	}
	return i.vmResolve(c, fr, name, create)
}

// slotTarget is the target of slot k of proc frame fr, as vmVar returns it.
func (i *Interp) slotTarget(fr *frame, k int32, create bool) *variable {
	v := fr.slots[k]
	if v == nil {
		if !create {
			return nil
		}
		v = i.newVar()
		fr.slots[k] = v
	}
	return v.target()
}

// vmResolve refills cache c for name in fr and returns name's target, as
// vmVar does.
func (i *Interp) vmResolve(c *varCache, fr *frame, name string, create bool) *variable {
	if k, ok := fr.slot(name); ok {
		c.epoch, c.layout, c.slot, c.v = i.varEpoch, fr.layout, k, nil
		return i.slotTarget(fr, k, create)
	}
	var t *variable
	if v := fr.lookup(name); v != nil {
		t = v.target()
	} else if create {
		t = i.bindVar(fr, name)
	} else {
		return nil
	}
	if fr.layout == nil {
		c.epoch, c.layout, c.v = i.varEpoch, nil, t
	}
	return t
}

// vmReadVar reads scalar name (GetVar semantics for plain names).
func (i *Interp) vmReadVar(r *vmRun, slot int32, name string) (string, bool) {
	t := i.vmVar(r, slot, name, false)
	if t == nil || t.isArr {
		return "", false
	}
	return t.value, true
}

// vmReadVarNum reads scalar name as an expression operand, memoizing the
// numeric classification on the variable slot.
func (i *Interp) vmReadVarNum(r *vmRun, slot int32, name string) (vm.Value, bool) {
	t := i.vmVar(r, slot, name, false)
	if t == nil || t.isArr {
		return vm.Value{}, false
	}
	if t.numState == 0 {
		t.num = vm.ClassifyOperand(t.value)
		t.numState = 1
	}
	return t.num, true
}

// vmWriteVar sets scalar name (setVar semantics for plain names) and
// returns the stored string; ok is false, and nothing is stored, when
// name is an array. An integer keeps its native form in the variable's
// numeric memo and a list its parsed form in the list memo; a float does
// not (its canonical 12-digit rendering is lossy, so the memo must be
// re-derived from the string).
func (i *Interp) vmWriteVar(r *vmRun, slot int32, name string, val vm.Value) (s string, ok bool) {
	t := i.vmVar(r, slot, name, true)
	if t.isArr {
		return "", false
	}
	s = val.Text()
	t.setScalar(s)
	switch val.Kind() {
	case vm.KInt:
		t.num, t.numState = val, 1
	case vm.KList:
		t.list = val.List()
	}
	return s, true
}

// listItems returns the elements of a list argument: the parsed form the
// value carries, or a parse of its string.
func listItems(v vm.Value) ([]string, error) {
	if l := v.List(); l != nil {
		return l.Items, nil
	}
	return ParseList(v.Text())
}

// vmDispatch resolves and runs a command through a dispatch cache slot.
func (i *Interp) vmDispatch(r *vmRun, slot int32, name string, words []string) Result {
	c := &r.cmds[slot]
	if c.epoch != i.cmdEpoch || c.name != name {
		c.epoch, c.name = i.cmdEpoch, name
		if cmd, ok := i.commands[name]; ok {
			c.kind, c.cmd, c.proc = 1, cmd, nil
		} else if p, ok := i.procs[name]; ok {
			c.kind, c.cmd, c.proc = 2, nil, p
		} else {
			c.kind, c.cmd, c.proc = 0, nil, nil
		}
	}
	switch c.kind {
	case 1:
		return c.cmd(i, words)
	case 2:
		return i.callProc(name, c.proc, words[1:])
	default:
		return Errf("invalid command name %q", name)
	}
}

// vmSpecOK reports whether name still binds its canonical builtin.
func (i *Interp) vmSpecOK(r *vmRun, slot int32, name string) bool {
	c := &r.specs[slot]
	if c.epoch == i.cmdEpoch {
		return c.ok
	}
	c.epoch = i.cmdEpoch
	c.ok = false
	if cmd, ok := i.commands[name]; ok {
		if want, known := canonicalBuiltins[name]; known {
			c.ok = reflect.ValueOf(cmd).Pointer() == want
		}
	}
	return c.ok
}

// vmSpecFast reports whether a specialized site may take its fast path:
// no Trace armed (it needs each command's substituted words) and the
// canonical builtin still bound.
func (i *Interp) vmSpecFast(r *vmRun, aux *vm.CmdAux) bool {
	if i.Trace != nil {
		return false
	}
	return i.vmSpecOK(r, aux.SpecSlot, aux.Name)
}

// vmEvalBlock runs a body block with EvalScript framing (depth guard,
// script step, depth bump) — the specialized twin of cmdIf/cmdWhile
// calling i.EvalScript(body).
func (i *Interp) vmEvalBlock(r *vmRun, blk *vm.Block) (Result, vm.Value, bool) {
	if blk.Prog == nil {
		return i.EvalScript(blk.Src), vm.Value{}, false
	}
	if i.depth >= i.MaxDepth {
		return Errf("too many nested evaluations (infinite loop?)"), vm.Value{}, false
	}
	if res, ok := i.spendStep(); !ok {
		return res, vm.Value{}, false
	}
	i.depth++
	res, _, num, numOK := i.runProgram(r, blk.Prog)
	i.depth--
	return res, num, numOK
}

// vmExprBool evaluates a condition expression (ExprBool semantics).
func (i *Interp) vmExprBool(r *vmRun, p *vm.ExprProg) (bool, Result) {
	if !p.Lowered() {
		return i.ExprBool(p.Src)
	}
	v, res := i.runExprProg(r, p)
	if res.Code != OK {
		return false, res
	}
	if v.Kind() == vm.KInt {
		return v.Int() != 0, Ok("")
	}
	b, msg := v.Truth()
	if msg != "" {
		return false, Result{Code: Error, Value: msg}
	}
	return b, Ok("")
}

// --- the script machine -------------------------------------------------

// execProgram is the script interpreter loop. The register window is
// re-sliced from the shared stack at each instruction because nested
// evaluation (brackets, bodies, dispatched commands re-entering the vm)
// may grow and reallocate it.
//
// region holds the DispatchHook stamp of the if/while/foreach site being
// run on its fast path: the site's dispatch spans OpSpecEnter to
// OpSpecDone, the if arm's join, or any exit in between, and is reported
// there. Sites never nest within one program (bodies and conditions are
// separate programs), so one stamp suffices.
func (i *Interp) execProgram(r *vmRun, p *vm.Program, base int) (Result, bool, vm.Value, bool) {
	last := Ok("")
	var lastNum vm.Value
	lastNumOK := false
	region := span{start: -1}
	code := p.Code
	for pc := 0; pc < len(code); {
		in := &code[pc]
		regs := i.vmRegs[base:]
		switch in.Op {
		case vm.OpConst:
			regs[in.Dst] = p.Consts[in.A]
			pc++

		case vm.OpVarRead:
			name := p.Names[in.A]
			t := i.vmVar(r, in.B, name, false)
			if t == nil || t.isArr {
				// A failed substitution aborts the command with no step
				// charged and no ErrorInfo note, like parser.varSubst.
				return Errf("can't read %q: no such variable", name), false, vm.Value{}, false
			}
			if in.C != 0 {
				// Parsing is pure, so parsing at the read instead of in
				// the command is unobservable; a failure is left for the
				// command to report.
				t.memoList()
			}
			if t.list != nil {
				regs[in.Dst] = vm.ListValue(t.list)
			} else {
				regs[in.Dst] = vm.StringValue(t.value)
			}
			pc++

		case vm.OpArrRead:
			name, idx := p.Names[in.A], p.Names[in.B]
			t := i.vmVar(r, in.C, name, false)
			if t == nil || !t.isArr {
				return Errf("can't read %q: no such element in array", name+"("+idx+")"), false, vm.Value{}, false
			}
			val, ok := t.arr[idx]
			if !ok {
				return Errf("can't read %q: no such element in array", name+"("+idx+")"), false, vm.Value{}, false
			}
			regs[in.Dst] = vm.StringValue(val)
			pc++

		case vm.OpConcat:
			if in.B == 2 {
				regs[in.Dst] = vm.StringValue(regs[in.A].Text() + regs[in.A+1].Text())
			} else {
				var sb strings.Builder
				for k := int32(0); k < in.B; k++ {
					sb.WriteString(regs[in.A+k].Text())
				}
				regs[in.Dst] = vm.StringValue(sb.String())
			}
			pc++

		case vm.OpBracket:
			out, atBracket, num, numOK := i.runProgram(r, p.Blocks[in.A].Prog)
			if out.Code == Return {
				if !atBracket {
					return Errf("missing close-bracket"), false, vm.Value{}, false
				}
			} else if out.Code != OK {
				return out, false, vm.Value{}, false
			}
			regs = i.vmRegs[base:]
			switch {
			case !numOK:
				regs[in.Dst] = vm.StringValue(out.Value)
			case num.Kind() == vm.KInt:
				// out.Value is num's canonical rendering; carry it so a
				// downstream set/concat never re-formats the integer.
				regs[in.Dst] = vm.IntStringValue(num.Int(), out.Value)
			default:
				regs[in.Dst] = num
			}
			pc++

		case vm.OpInvoke:
			aux := &p.Aux[in.Dst]
			argBase := len(i.vmArgs)
			var words []string
			if in.B == 0 {
				words = p.LitWords[aux.LitIdx]
			} else {
				words = i.pushArgs(regs[in.A : in.A+in.B])
			}
			var res Result
			if i.Trace != nil {
				res = i.EvalWords(words)
			} else if sres, ok := i.spendStep(); !ok {
				res = sres
			} else {
				sp := i.stamp()
				res = i.vmDispatch(r, aux.CacheSlot, words[0], words)
				i.report(words[0], sp)
			}
			if res.Code == Error {
				i.noteErrorLine(words)
			}
			i.popArgs(argBase)
			if res.Code != OK {
				return res, aux.BracketOK, vm.Value{}, false
			}
			last, lastNumOK = res, false
			pc++

		case vm.OpCmd:
			// The classic referee runs the one command the vm did not
			// lower: parse it from its source offset, substituting as it
			// goes, then dispatch it as parser.run does.
			h := &r.hosts[in.A]
			cp := &parser{interp: i, src: h.src, pos: h.start}
			words, out, _ := cp.parseCommand(h.bracketed)
			if out.Code != OK {
				return out.Result, false, vm.Value{}, false
			}
			if len(words) > 0 {
				res := i.EvalWords(words)
				if res.Code != OK {
					if res.Code == Error {
						i.noteErrorLine(words)
					}
					atBracket := cp.pos < len(cp.src) && cp.src[cp.pos] == ']'
					return res, atBracket, vm.Value{}, false
				}
				last, lastNumOK = res, false
			}
			pc++

		case vm.OpJump:
			pc = int(in.A)

		case vm.OpSpecEnter:
			aux := &p.Aux[in.Dst]
			if !i.vmSpecFast(r, aux) {
				words := i.vmSpecWords(p, aux, in, regs)
				res := i.EvalWords(words)
				if res.Code != OK {
					if res.Code == Error {
						i.noteErrorLine(words)
					}
					return res, aux.BracketOK, vm.Value{}, false
				}
				last, lastNumOK = res, false
				pc = int(in.A)
				break
			}
			if res, ok := i.spendStep(); !ok {
				i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				return res, aux.BracketOK, vm.Value{}, false
			}
			region = i.stamp()
			pc++

		case vm.OpTestExpr:
			aux := &p.Aux[in.Dst]
			b, res := i.vmExprBool(r, p.Exprs[in.A])
			if res.Code != OK {
				i.report(aux.Name, region)
				if res.Code == Error {
					i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				}
				return res, aux.BracketOK, vm.Value{}, false
			}
			if b {
				pc++
			} else {
				pc = int(in.B)
			}

		case vm.OpIfBody:
			aux := &p.Aux[in.Dst]
			res, num, numOK := i.vmEvalBlock(r, &p.Blocks[in.A])
			i.report(aux.Name, region)
			if res.Code != OK {
				if res.Code == Error {
					i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				}
				return res, aux.BracketOK, vm.Value{}, false
			}
			last, lastNum, lastNumOK = res, num, numOK
			pc = int(in.B)

		case vm.OpLoopBody:
			aux := &p.Aux[in.Dst]
			res, _, _ := i.vmEvalBlock(r, &p.Blocks[in.A])
			switch res.Code {
			case OK, Continue:
				pc = int(in.B)
			case Break:
				pc++ // falls through to OpSpecDone
			default:
				i.report(aux.Name, region)
				if res.Code == Error {
					i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				}
				return res, aux.BracketOK, vm.Value{}, false
			}

		case vm.OpForeachNext:
			aux := &p.Aux[in.Dst]
			f := &p.Foreach[in.A]
			ctr := regs[f.Counter].Int()
			lv := regs[f.List]
			var res Result
			if lv.Kind() != vm.KList {
				// The first step: cmdForeach's parse, after the dispatch
				// opened.
				text := lv.Text()
				items, err := ParseList(text)
				if err != nil {
					res = Errf("%v", err)
				} else {
					lv = vm.ListValue(vm.ParsedList(items, text))
					regs[f.List] = lv
				}
			}
			if res.Code == OK {
				items := lv.List().Items
				if ctr >= int64(len(items)) {
					pc = int(in.B)
					break
				}
				name := p.Names[f.Name]
				if _, ok := i.vmWriteVar(r, f.VarSlot, name, vm.StringValue(items[ctr])); ok {
					regs[f.Counter] = vm.IntValue(ctr + 1)
					pc++
					break
				}
				res = Errf("can't set %q: variable is array", name)
			}
			i.report(aux.Name, region)
			i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
			return res, aux.BracketOK, vm.Value{}, false

		case vm.OpSpecDone:
			i.report(p.Aux[in.Dst].Name, region)
			last, lastNumOK = Ok(""), false
			pc++

		case vm.OpSetVar, vm.OpGetVar, vm.OpIncr, vm.OpExprCmd, vm.OpLindex, vm.OpLlength, vm.OpSplit:
			aux := &p.Aux[in.Dst]
			if !i.vmSpecFast(r, aux) {
				res := i.vmRunGeneric(p, aux, in, regs)
				if res.Code != OK {
					return res, aux.BracketOK, vm.Value{}, false
				}
				last, lastNumOK = res, false
				pc++
				break
			}
			if res, ok := i.spendStep(); !ok {
				i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				return res, aux.BracketOK, vm.Value{}, false
			}
			sp := i.stamp()
			res, num, numOK := i.vmSpecRun(r, p, aux, in, regs)
			i.report(aux.Name, sp)
			if res.Code != OK {
				if res.Code == Error {
					i.noteErrorLine(i.vmSpecWords(p, aux, in, regs))
				}
				return res, aux.BracketOK, vm.Value{}, false
			}
			last, lastNum, lastNumOK = res, num, numOK
			pc++

		default:
			return Errf("internal: unknown vm opcode %d", in.Op), false, vm.Value{}, false
		}
	}
	return last, p.EndAtBracket, lastNum, lastNumOK
}

// vmSpecRun is the fast path of a set/incr/expr/list-command site whose
// step is already charged: the command's Result plus, when that result is
// an integer or a list, its native value (the numOK channel).
func (i *Interp) vmSpecRun(r *vmRun, p *vm.Program, aux *vm.CmdAux, in *vm.Instr, regs []vm.Value) (Result, vm.Value, bool) {
	switch in.Op {
	case vm.OpSetVar:
		val := regs[in.B]
		s, ok := i.vmWriteVar(r, in.C, p.Names[in.A], val)
		if !ok {
			return Errf("can't set %q: variable is array", p.Names[in.A]), vm.Value{}, false
		}
		return Ok(s), val, val.Kind() == vm.KInt

	case vm.OpGetVar:
		name := p.Names[in.A]
		val, ok := i.vmReadVar(r, in.C, name)
		if !ok {
			return Errf("can't read %q: no such variable", name), vm.Value{}, false
		}
		return Ok(val), vm.Value{}, false

	case vm.OpIncr:
		name := p.Names[in.A]
		t := i.vmVar(r, in.C, name, false)
		if t == nil || t.isArr {
			return Errf("can't read %q: no such variable", name), vm.Value{}, false
		}
		var n int64
		if t.numState == 1 && t.num.Kind() == vm.KInt {
			n = t.num.Int()
		} else {
			pn, err := strconv.ParseInt(strings.TrimSpace(t.value), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", t.value), vm.Value{}, false
			}
			n = pn
		}
		if in.B >= 0 {
			n += p.Consts[in.B].Int()
		} else {
			n++
		}
		s := strconv.FormatInt(n, 10)
		t.setScalar(s)
		t.num, t.numState = vm.IntValue(n), 1
		return Ok(s), t.num, true

	case vm.OpLindex, vm.OpLlength:
		args := regs[aux.Args : aux.Args+aux.NArgs]
		items, err := listItems(args[0])
		if err != nil {
			return Errf("%v", err), vm.Value{}, false
		}
		if in.Op == vm.OpLindex {
			return lindexOf(items, args[1].Text()), vm.Value{}, false
		}
		s := strconv.Itoa(len(items))
		return Ok(s), vm.IntStringValue(int64(len(items)), s), true

	case vm.OpSplit:
		args := regs[aux.Args : aux.Args+aux.NArgs]
		chars := defaultSplitChars
		if len(args) == 2 {
			chars = args[1].Text()
		}
		return Ok(""), vm.ListValue(&vm.List{Items: splitString(args[0].Text(), chars)}), true

	default: // vm.OpExprCmd
		ep := p.Exprs[in.A]
		if !ep.Lowered() {
			s, res := i.ExprString(ep.Src)
			if res.Code != OK {
				return res, vm.Value{}, false
			}
			return Ok(s), vm.Value{}, false
		}
		v, res := i.runExprProg(r, ep)
		if res.Code != OK {
			return res, vm.Value{}, false
		}
		return Ok(v.Text()), v, v.Kind() == vm.KInt
	}
}

// vmSpecWords rebuilds the substituted word list of a specialized
// command (for generic fallback and ErrorInfo notes).
func (i *Interp) vmSpecWords(p *vm.Program, aux *vm.CmdAux, in *vm.Instr, regs []vm.Value) []string {
	if aux.LitIdx >= 0 {
		return p.LitWords[aux.LitIdx]
	}
	if aux.NArgs > 0 {
		words := make([]string, 1+aux.NArgs)
		words[0] = aux.Name
		for k := int32(0); k < aux.NArgs; k++ {
			words[1+k] = regs[aux.Args+k].Text()
		}
		return words
	}
	// The other non-literal sites are OpSetVar's (computed value word).
	return []string{aux.Name, p.Names[in.A], regs[in.B].Text()}
}

// vmRunGeneric dispatches a specialized site through the classic
// EvalWords path (hooks armed, or the builtin was rebound), applying the
// standard command tail (ErrorInfo note on error).
func (i *Interp) vmRunGeneric(p *vm.Program, aux *vm.CmdAux, in *vm.Instr, regs []vm.Value) Result {
	words := i.vmSpecWords(p, aux, in, regs)
	res := i.EvalWords(words)
	if res.Code == Error {
		i.noteErrorLine(words)
	}
	return res
}

// --- the expression machine ---------------------------------------------

// exprCtl is one lazy-operator control frame: the enclosing takenness
// and the operator's own test flag (lhs truth / ternary condition).
type exprCtl struct {
	taken bool
	flag  bool
}

// runExprProg executes a lowered expression.
func (i *Interp) runExprProg(r *vmRun, p *vm.ExprProg) (vm.Value, Result) {
	base := i.pushRegs(p.NRegs)
	v, res := i.execExpr(r, p, base)
	i.vmRegs = i.vmRegs[:base]
	return v, res
}

// execExpr is the expression interpreter loop. Only EBracket can grow
// the register stack, so the window is hoisted and re-sliced after it.
func (i *Interp) execExpr(r *vmRun, p *vm.ExprProg, base int) (vm.Value, Result) {
	var ctlArr [8]exprCtl
	ctl := ctlArr[:0]
	taken := true
	code := p.Code
	regs := i.vmRegs[base:]
	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		switch in.Op {
		case vm.EConst:
			regs[in.Dst] = p.Consts[in.A]

		case vm.EVar:
			if !taken {
				regs[in.Dst] = vm.IntValue(0)
				break
			}
			if t := r.vars[in.B].cached(i.varEpoch, i.current()); t != nil && !t.isArr && t.numState == 1 {
				regs[in.Dst] = t.num
				break
			}
			name := p.Names[in.A]
			v, ok := i.vmReadVarNum(r, in.B, name)
			if !ok {
				return vm.Value{}, Errf("can't read %q: no such variable", name)
			}
			regs[in.Dst] = v

		case vm.EBracket:
			if !taken {
				// The classic evaluator skips the bracket lexically on
				// untaken sides; reproduce the skip's verdict.
				if in.B == 0 {
					return vm.Value{}, Errf("missing close-bracket")
				}
				regs[in.Dst] = vm.IntValue(0)
				break
			}
			out, atBracket, num, numOK := i.runProgram(r, p.Blocks[in.A].Prog)
			if out.Code == Return {
				if !atBracket {
					return vm.Value{}, Errf("missing close-bracket")
				}
			} else if out.Code != OK {
				return vm.Value{}, out
			}
			regs = i.vmRegs[base:]
			switch {
			case !numOK:
				regs[in.Dst] = vm.ClassifyOperand(out.Value)
			case num.Kind() == vm.KInt:
				regs[in.Dst] = num
			default:
				regs[in.Dst] = vm.ClassifyOperand(num.Text())
			}

		case vm.EUnary:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			out, msg := vm.ApplyUnary(byte(in.B), regs[in.A])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out

		// Each binary operator gets its own case so dispatch is a single
		// jump-table hop with the int⊗int path inline; the mixed/string
		// path falls through to ApplyBinary. Untaken binaries pass the
		// lhs through. Int semantics (flooring, zero checks, shift
		// bounds, error strings) mirror applyArith, applyIntOp and
		// applyCompare exactly; the differential fuzzer holds the two in
		// lockstep.
		case vm.EAdd:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x + y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.ESub:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x - y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EMul:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x * y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EDiv:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				if y == 0 {
					return vm.Value{}, Result{Code: Error, Value: "divide by zero"}
				}
				q := x / y
				if (x%y != 0) && ((x < 0) != (y < 0)) {
					q--
				}
				regs[in.Dst] = vm.IntValue(q)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EMod:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				if y == 0 {
					return vm.Value{}, Result{Code: Error, Value: "divide by zero"}
				}
				rem := x % y
				if rem != 0 && ((x < 0) != (y < 0)) {
					rem += y
				}
				regs[in.Dst] = vm.IntValue(rem)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EBitOr:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x | y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EBitXor:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x ^ y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EBitAnd:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.IntValue(x & y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EShl:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				if y < 0 || y > 63 {
					return vm.Value{}, Result{Code: Error, Value: "invalid shift count " + strconv.FormatInt(y, 10)}
				}
				regs[in.Dst] = vm.IntValue(x << uint(y))
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EShr:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				if y < 0 || y > 63 {
					return vm.Value{}, Result{Code: Error, Value: "invalid shift count " + strconv.FormatInt(y, 10)}
				}
				regs[in.Dst] = vm.IntValue(x >> uint(y))
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EEq:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x == y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.ENe:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x != y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.ELt:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x < y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EGt:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x > y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.ELe:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x <= y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out
		case vm.EGe:
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if a, b := regs[in.A], regs[in.B]; a.Kind() == vm.KInt && b.Kind() == vm.KInt {
				x, y := a.Int(), b.Int()
				regs[in.Dst] = vm.BoolValue(x >= y)
				break
			}
			out, msg := vm.ApplyBinary(vm.BinOpOf(in.Op), regs[in.A], regs[in.B])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out

		case vm.EAndTest:
			lt := true
			if taken {
				if av := regs[in.A]; av.Kind() == vm.KInt {
					lt = av.Int() != 0
				} else {
					b, msg := av.Truth()
					if msg != "" {
						return vm.Value{}, Result{Code: Error, Value: msg}
					}
					lt = b
				}
			}
			ctl = append(ctl, exprCtl{taken: taken, flag: lt})
			taken = taken && lt

		case vm.EAndEnd:
			fr := ctl[len(ctl)-1]
			ctl = ctl[:len(ctl)-1]
			taken = fr.taken
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if !fr.flag {
				regs[in.Dst] = vm.BoolValue(false)
				break
			}
			if av := regs[in.B]; av.Kind() == vm.KInt {
				regs[in.Dst] = vm.BoolValue(av.Int() != 0)
			} else {
				b, msg := av.Truth()
				if msg != "" {
					return vm.Value{}, Result{Code: Error, Value: msg}
				}
				regs[in.Dst] = vm.BoolValue(b)
			}

		case vm.EOrTest:
			lf := false
			if taken {
				if av := regs[in.A]; av.Kind() == vm.KInt {
					lf = av.Int() != 0
				} else {
					b, msg := av.Truth()
					if msg != "" {
						return vm.Value{}, Result{Code: Error, Value: msg}
					}
					lf = b
				}
			}
			ctl = append(ctl, exprCtl{taken: taken, flag: lf})
			taken = taken && !lf

		case vm.EOrEnd:
			fr := ctl[len(ctl)-1]
			ctl = ctl[:len(ctl)-1]
			taken = fr.taken
			if !taken {
				regs[in.Dst] = regs[in.A]
				break
			}
			if fr.flag {
				regs[in.Dst] = vm.BoolValue(true)
				break
			}
			if av := regs[in.B]; av.Kind() == vm.KInt {
				regs[in.Dst] = vm.BoolValue(av.Int() != 0)
			} else {
				b, msg := av.Truth()
				if msg != "" {
					return vm.Value{}, Result{Code: Error, Value: msg}
				}
				regs[in.Dst] = vm.BoolValue(b)
			}

		case vm.ETernTest:
			take := false
			if taken {
				if av := regs[in.A]; av.Kind() == vm.KInt {
					take = av.Int() != 0
				} else {
					b, msg := av.Truth()
					if msg != "" {
						return vm.Value{}, Result{Code: Error, Value: msg}
					}
					take = b
				}
			}
			ctl = append(ctl, exprCtl{taken: taken, flag: take})
			taken = taken && take

		case vm.ETernElse:
			fr := &ctl[len(ctl)-1]
			taken = fr.taken && !fr.flag

		case vm.ETernEnd:
			fr := ctl[len(ctl)-1]
			ctl = ctl[:len(ctl)-1]
			taken = fr.taken
			if !taken {
				regs[in.Dst] = vm.IntValue(0)
				break
			}
			if fr.flag {
				regs[in.Dst] = regs[in.A]
			} else {
				regs[in.Dst] = regs[in.B]
			}

		case vm.EFunc:
			if !taken {
				regs[in.Dst] = vm.IntValue(0)
				break
			}
			out, msg := vm.ApplyMathFunc(p.Funcs[in.B], regs[in.A])
			if msg != "" {
				return vm.Value{}, Result{Code: Error, Value: msg}
			}
			regs[in.Dst] = out

		case vm.EEnd:
			return regs[in.A], Ok("")
		}
	}
	return vm.Value{}, Errf("internal: expression program fell off the end")
}
