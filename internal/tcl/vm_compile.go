package tcl

import (
	"strconv"
	"strings"

	"repro/internal/tcl/vm"
)

// The bytecode lowering pass. lowerScript turns a compiled skeleton
// (compile.go) into a vm.Program; lowerExprText turns an expression tree
// (expr_ast.go) into a vm.ExprProg. Lowering is total by construction:
// any command the compiler cannot express in specialized ops — parse
// errors, poisoned words, computed array indices — becomes an OpCmd that
// hands that one command to the classic parser, and any expression
// construct outside the lowered subset leaves a Code==nil ExprProg that
// the classic expression evaluator runs. The classic evaluator therefore
// remains the sole semantic referee; the bytecode only ever reproduces it
// faster.
//
// Everything here is deterministic: pools are filled in first-use walk
// order and no map is ever iterated, which is what makes the golden
// compile→disasm→recompile stability test meaningful.

// vmPool carries the tree-global lowering state: inline-cache slot
// counters (numbered across the whole program tree, nested blocks and
// embedded expressions included) and the host table of OpCmd fallbacks.
type vmPool struct {
	cmdSlots  int32
	varSlots  int32
	specSlots int32
	hosts     []vmHost
}

func (p *vmPool) cmdSlot() int32 { s := p.cmdSlots; p.cmdSlots++; return s }

func (p *vmPool) varSlot() int32 { s := p.varSlots; p.varSlots++; return s }

func (p *vmPool) specSlot() int32 { s := p.specSlots; p.specSlots++; return s }

func (p *vmPool) host(cs *compiledScript, c *compiledCmd) int32 {
	p.hosts = append(p.hosts, vmHost{src: cs.src, start: c.start, bracketed: cs.bracketed})
	return int32(len(p.hosts) - 1)
}

func (p *vmPool) counts() vm.SlotCounts {
	return vm.SlotCounts{Cmds: p.cmdSlots, Vars: p.varSlots, Specs: p.specSlots}
}

// lowerRootScript lowers a top-level skeleton, returning the program and
// the host table its OpCmd fallbacks parse.
func lowerRootScript(cs *compiledScript) (*vm.Program, []vmHost) {
	pool := &vmPool{}
	p := lowerScript(cs, pool)
	p.Slots = pool.counts()
	return p, pool.hosts
}

// lowerRootExpr lowers a standalone expression (the vm expr cache entry).
func lowerRootExpr(src string) (*vm.ExprProg, []vmHost, vm.SlotCounts) {
	pool := &vmPool{}
	p := lowerExprText(src, pool)
	return p, pool.hosts, pool.counts()
}

// progBuilder accumulates one vm.Program. Registers are a per-command
// scratch file: the counter resets to zero for every command and NRegs
// records the high-water mark.
type progBuilder struct {
	pool     *vmPool
	code     []vm.Instr
	consts   []vm.Value
	constIx  map[vm.ValueKey]int32
	names    []string
	nameIx   map[string]int32
	litWords [][]string
	blocks   []vm.Block
	exprs    []*vm.ExprProg
	aux      []vm.CmdAux
	foreach  []vm.ForeachAux
	hostCmds int32
	nreg     int32
	maxReg   int32
}

func lowerScript(cs *compiledScript, pool *vmPool) *vm.Program {
	b := &progBuilder{
		pool:    pool,
		constIx: make(map[vm.ValueKey]int32),
		nameIx:  make(map[string]int32),
	}
	for k := range cs.cmds {
		b.lowerCmd(cs, &cs.cmds[k])
	}
	return &vm.Program{
		Code: b.code, Consts: b.consts, Names: b.names,
		LitWords: b.litWords, Blocks: b.blocks,
		Exprs: b.exprs, Aux: b.aux, Foreach: b.foreach,
		HostCmds: b.hostCmds, NRegs: b.maxReg,
		EndAtBracket: cs.endAtBracket,
	}
}

func (b *progBuilder) emit(in vm.Instr) int32 {
	b.code = append(b.code, in)
	return int32(len(b.code) - 1)
}

func (b *progBuilder) reg() int32 {
	r := b.nreg
	b.nreg++
	if b.nreg > b.maxReg {
		b.maxReg = b.nreg
	}
	return r
}

func (b *progBuilder) konst(v vm.Value) int32 {
	if ix, ok := b.constIx[v.Key()]; ok {
		return ix
	}
	ix := int32(len(b.consts))
	b.consts = append(b.consts, v)
	b.constIx[v.Key()] = ix
	return ix
}

func (b *progBuilder) name(n string) int32 {
	if ix, ok := b.nameIx[n]; ok {
		return ix
	}
	ix := int32(len(b.names))
	b.names = append(b.names, n)
	b.nameIx[n] = ix
	return ix
}

func (b *progBuilder) words(w []string) int32 {
	b.litWords = append(b.litWords, w)
	return int32(len(b.litWords) - 1)
}

func (b *progBuilder) addAux(a vm.CmdAux) int32 {
	b.aux = append(b.aux, a)
	return int32(len(b.aux) - 1)
}

// block lowers an already-compiled nested script (a [bracket] segment).
func (b *progBuilder) block(cs *compiledScript, src string) int32 {
	b.blocks = append(b.blocks, vm.Block{Prog: lowerScript(cs, b.pool), Src: src})
	return int32(len(b.blocks) - 1)
}

// blockFromSrc compiles and lowers a body argument (if arm, loop body).
// The source rides along as the EvalScript-equivalent fallback key.
func (b *progBuilder) blockFromSrc(src string) int32 {
	return b.block(compileScript(src, false), src)
}

func (b *progBuilder) expr(src string) int32 {
	b.exprs = append(b.exprs, lowerExprText(src, b.pool))
	return int32(len(b.exprs) - 1)
}

// lowerCmd lowers one command of cs: specialized ops when the shape
// allows, the generic inline-cached invoke otherwise, and an OpCmd that
// hands the command to the classic parser for anything outside the
// lowered subset.
func (b *progBuilder) lowerCmd(cs *compiledScript, cmd *compiledCmd) {
	if cmd.parseErr || cmd.poisoned || !canLowerWords(cmd) {
		b.hostCmds++
		b.emit(vm.Instr{Op: vm.OpCmd, A: b.pool.host(cs, cmd)})
		return
	}
	if b.trySpec(cmd) {
		return
	}
	b.lowerInvoke(cmd)
}

// canLowerWords reports whether every word of cmd lowers to register ops.
func canLowerWords(cmd *compiledCmd) bool {
	for k := range cmd.words {
		w := &cmd.words[k]
		if w.segs == nil {
			continue
		}
		for s := range w.segs {
			if !canLowerSeg(&w.segs[s]) {
				return false
			}
		}
	}
	return true
}

func canLowerSeg(s *wordSeg) bool {
	switch s.kind {
	case segLiteral, segScript:
		return true
	case segVar:
		// GetVar re-splits "a(b)" spellings from ${a(b)}; keep those on
		// the classic path so the split stays in one place.
		_, _, isElem := splitArrayRef(s.text)
		return !isElem
	case segVarArr:
		// Only literal (compile-time fixed) indices lower to OpArrRead.
		for k := range s.index {
			if s.index[k].kind != segLiteral {
				return false
			}
		}
		return true
	}
	// segVarArrOpen (and any future kind) stays on the classic path.
	return false
}

// lowerWordInto emits the ops that leave one word's value in dst.
func (b *progBuilder) lowerWordInto(w *compiledWord, dst int32) {
	if w.segs == nil {
		b.emit(vm.Instr{Op: vm.OpConst, Dst: dst, A: b.konst(vm.StringValue(w.lit))})
		return
	}
	if len(w.segs) == 1 {
		b.lowerSegInto(&w.segs[0], dst)
		return
	}
	base := b.nreg
	for k := range w.segs {
		b.lowerSegInto(&w.segs[k], b.reg())
	}
	b.emit(vm.Instr{Op: vm.OpConcat, Dst: dst, A: base, B: int32(len(w.segs))})
}

func (b *progBuilder) lowerSegInto(s *wordSeg, dst int32) {
	switch s.kind {
	case segLiteral:
		b.emit(vm.Instr{Op: vm.OpConst, Dst: dst, A: b.konst(vm.StringValue(s.text))})
	case segVar:
		b.emit(vm.Instr{Op: vm.OpVarRead, Dst: dst, A: b.name(s.text), B: b.pool.varSlot()})
	case segVarArr:
		var idx strings.Builder
		for k := range s.index {
			idx.WriteString(s.index[k].text)
		}
		b.emit(vm.Instr{
			Op: vm.OpArrRead, Dst: dst,
			A: b.name(s.text), B: b.name(idx.String()), C: b.pool.varSlot(),
		})
	case segScript:
		b.emit(vm.Instr{Op: vm.OpBracket, Dst: dst, A: b.block(s.script, "")})
	}
}

// lowerInvoke emits the generic inline-cached dispatch of one command.
func (b *progBuilder) lowerInvoke(cmd *compiledCmd) {
	b.nreg = 0
	aux := vm.CmdAux{
		LitIdx: -1, BracketOK: cmd.bracketOK,
		CacheSlot: b.pool.cmdSlot(), SpecSlot: -1,
	}
	if cmd.litWords != nil {
		aux.Name = cmd.litWords[0]
		aux.LitIdx = b.words(cmd.litWords)
		b.emit(vm.Instr{Op: vm.OpInvoke, Dst: b.addAux(aux)})
		return
	}
	if cmd.words[0].segs == nil {
		aux.Name = cmd.words[0].lit
	}
	base := b.nreg
	n := int32(len(cmd.words))
	dsts := make([]int32, n)
	for k := range dsts {
		dsts[k] = b.reg()
	}
	for k := range cmd.words {
		b.lowerWordInto(&cmd.words[k], dsts[k])
	}
	b.emit(vm.Instr{Op: vm.OpInvoke, Dst: b.addAux(aux), A: base, B: n})
}

// --- command specializations --------------------------------------------

func (b *progBuilder) trySpec(cmd *compiledCmd) bool {
	w0 := &cmd.words[0]
	if w0.segs != nil {
		return false
	}
	switch w0.lit {
	case "set":
		return b.trySet(cmd)
	case "incr":
		return b.tryIncr(cmd)
	case "expr":
		return b.tryExpr(cmd)
	case "if":
		return b.tryIf(cmd)
	case "while":
		return b.tryWhile(cmd)
	case "foreach":
		return b.tryForeach(cmd)
	case "lindex":
		return b.tryListCmd(cmd, vm.OpLindex, 2, 2)
	case "llength":
		return b.tryListCmd(cmd, vm.OpLlength, 1, 1)
	case "split":
		return b.tryListCmd(cmd, vm.OpSplit, 1, 2)
	}
	return false
}

// specAux builds the shared aux record of one specialized command site.
func (b *progBuilder) specAux(name string, cmd *compiledCmd) vm.CmdAux {
	aux := vm.CmdAux{
		Name: name, LitIdx: -1, BracketOK: cmd.bracketOK,
		CacheSlot: -1, SpecSlot: b.pool.specSlot(),
	}
	if cmd.litWords != nil {
		aux.LitIdx = b.words(cmd.litWords)
	}
	return aux
}

// plainVarName reports that name is a plain scalar (no "a(b)" split).
func plainVarName(name string) bool {
	_, _, isElem := splitArrayRef(name)
	return !isElem
}

func (b *progBuilder) trySet(cmd *compiledCmd) bool {
	n := len(cmd.words)
	if n != 2 && n != 3 {
		return false
	}
	nameWord := &cmd.words[1]
	if nameWord.segs != nil || !plainVarName(nameWord.lit) {
		return false
	}
	b.nreg = 0
	aux := b.specAux("set", cmd)
	if n == 2 {
		b.emit(vm.Instr{
			Op: vm.OpGetVar, Dst: b.addAux(aux),
			A: b.name(nameWord.lit), C: b.pool.varSlot(),
		})
		return true
	}
	src := b.reg()
	b.lowerWordInto(&cmd.words[2], src)
	b.emit(vm.Instr{
		Op: vm.OpSetVar, Dst: b.addAux(aux),
		A: b.name(nameWord.lit), B: src, C: b.pool.varSlot(),
	})
	return true
}

func (b *progBuilder) tryIncr(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) < 2 || len(args) > 3 || !plainVarName(args[1]) {
		return false
	}
	delta := int32(-1)
	if len(args) == 3 {
		d, err := strconv.ParseInt(strings.TrimSpace(args[2]), 0, 64)
		if err != nil {
			// The error depends on the variable's state at runtime
			// (cmdIncr reads the variable first); stay generic.
			return false
		}
		delta = b.konst(vm.IntValue(d))
	}
	b.nreg = 0
	b.emit(vm.Instr{
		Op: vm.OpIncr, Dst: b.addAux(b.specAux("incr", cmd)),
		A: b.name(args[1]), B: delta, C: b.pool.varSlot(),
	})
	return true
}

func (b *progBuilder) tryExpr(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) < 2 {
		return false
	}
	b.nreg = 0
	text := strings.Join(args[1:], " ")
	b.emit(vm.Instr{
		Op: vm.OpExprCmd, Dst: b.addAux(b.specAux("expr", cmd)),
		A: b.expr(text),
	})
	return true
}

// parseIfChain accepts exactly the fully well-formed if grammars — the
// shapes where cmdIf's parse can never produce an arity or noise-word
// error regardless of which condition fires. Anything else (including
// shapes whose malformed tail cmdIf would ignore when an earlier
// condition is true) stays on the generic path, where cmdIf itself
// reproduces the classic behavior.
func parseIfChain(args []string) (conds, bodies []string, elseBody string, hasElse, ok bool) {
	a := args[1:]
	for {
		if len(a) == 0 {
			return nil, nil, "", false, false
		}
		cond := a[0]
		a = a[1:]
		if len(a) > 0 && a[0] == "then" {
			a = a[1:]
		}
		if len(a) == 0 {
			return nil, nil, "", false, false
		}
		conds = append(conds, cond)
		bodies = append(bodies, a[0])
		a = a[1:]
		if len(a) == 0 {
			return conds, bodies, "", false, true
		}
		switch a[0] {
		case "elseif":
			a = a[1:]
			continue
		case "else":
			a = a[1:]
			if len(a) != 1 {
				return nil, nil, "", false, false
			}
			return conds, bodies, a[0], true, true
		default:
			if len(a) == 1 {
				// Bare else body, old-Tcl style.
				return conds, bodies, a[0], true, true
			}
			return nil, nil, "", false, false
		}
	}
}

func (b *progBuilder) tryIf(cmd *compiledCmd) bool {
	if cmd.litWords == nil {
		return false
	}
	conds, bodies, elseBody, hasElse, ok := parseIfChain(cmd.litWords)
	if !ok {
		return false
	}
	b.nreg = 0
	auxIdx := b.addAux(b.specAux("if", cmd))
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	var joinPatch []int32
	for k := range conds {
		test := b.emit(vm.Instr{Op: vm.OpTestExpr, Dst: auxIdx, A: b.expr(conds[k])})
		body := b.emit(vm.Instr{Op: vm.OpIfBody, Dst: auxIdx, A: b.blockFromSrc(bodies[k])})
		joinPatch = append(joinPatch, body)
		b.code[test].B = int32(len(b.code))
	}
	if hasElse {
		body := b.emit(vm.Instr{Op: vm.OpIfBody, Dst: auxIdx, A: b.blockFromSrc(elseBody)})
		joinPatch = append(joinPatch, body)
	} else {
		b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	}
	join := int32(len(b.code))
	b.code[enter].A = join
	for _, pc := range joinPatch {
		b.code[pc].B = join
	}
	return true
}

func (b *progBuilder) tryWhile(cmd *compiledCmd) bool {
	args := cmd.litWords
	if args == nil || len(args) != 3 {
		return false
	}
	b.nreg = 0
	auxIdx := b.addAux(b.specAux("while", cmd))
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	test := b.emit(vm.Instr{Op: vm.OpTestExpr, Dst: auxIdx, A: b.expr(args[1])})
	b.emit(vm.Instr{Op: vm.OpLoopBody, Dst: auxIdx, A: b.blockFromSrc(args[2]), B: test})
	b.code[test].B = int32(len(b.code)) // false -> SpecDone
	b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	b.code[enter].A = int32(len(b.code))
	return true
}

// lowerListWordInto is lowerWordInto for the list word of a list
// command: a literal list is parsed here, into a constant list value, and
// a lone $name reads the variable's list form, so the command parses
// neither. A literal that does not parse stays a string, and the command
// reports the error when it runs.
func (b *progBuilder) lowerListWordInto(w *compiledWord, dst int32) {
	if w.segs == nil {
		if items, err := ParseList(w.lit); err == nil {
			c := b.konst(vm.ListValue(vm.ParsedList(items, w.lit)))
			b.emit(vm.Instr{Op: vm.OpConst, Dst: dst, A: c})
			return
		}
	} else if len(w.segs) == 1 && w.segs[0].kind == segVar {
		b.emit(vm.Instr{Op: vm.OpVarRead, Dst: dst, A: b.name(w.segs[0].text), B: b.pool.varSlot(), C: 1})
		return
	}
	b.lowerWordInto(w, dst)
}

// tryListCmd lowers lindex, llength or split called with minArgs to
// maxArgs arguments (other counts stay generic, where the command reports
// its usage): the arguments go to registers, the first as a list word for
// lindex and llength.
func (b *progBuilder) tryListCmd(cmd *compiledCmd, op vm.Op, minArgs, maxArgs int) bool {
	n := len(cmd.words) - 1
	if n < minArgs || n > maxArgs {
		return false
	}
	b.nreg = 0
	aux := b.specAux(cmd.words[0].lit, cmd)
	aux.Args, aux.NArgs = b.nreg, int32(n)
	for range n {
		b.reg()
	}
	for k := 1; k <= n; k++ {
		if k == 1 && op != vm.OpSplit {
			b.lowerListWordInto(&cmd.words[k], aux.Args)
		} else {
			b.lowerWordInto(&cmd.words[k], aux.Args+int32(k-1))
		}
	}
	b.emit(vm.Instr{Op: op, Dst: b.addAux(aux)})
	return true
}

// tryForeach lowers `foreach varName list body` with a literal variable
// name and body and any list word: a literal (a constant list value), a
// $name (the variable's list form), a [bracket] (whose command may hand
// back a native list, as split does) or an interpolation.
func (b *progBuilder) tryForeach(cmd *compiledCmd) bool {
	if len(cmd.words) != 4 {
		return false
	}
	varWord, bodyWord := &cmd.words[1], &cmd.words[3]
	if varWord.segs != nil || !plainVarName(varWord.lit) || bodyWord.segs != nil {
		return false
	}
	b.nreg = 0
	aux := b.specAux("foreach", cmd)
	aux.Args, aux.NArgs = b.nreg, 3
	varReg, listReg, bodyReg, ctr := b.reg(), b.reg(), b.reg(), b.reg()
	b.emit(vm.Instr{Op: vm.OpConst, Dst: varReg, A: b.konst(vm.StringValue(varWord.lit))})
	b.lowerListWordInto(&cmd.words[2], listReg)
	b.emit(vm.Instr{Op: vm.OpConst, Dst: bodyReg, A: b.konst(vm.StringValue(bodyWord.lit))})
	auxIdx := b.addAux(aux)
	b.foreach = append(b.foreach, vm.ForeachAux{
		List: listReg, Counter: ctr, Name: b.name(varWord.lit), VarSlot: b.pool.varSlot(),
	})
	fIdx := int32(len(b.foreach) - 1)
	enter := b.emit(vm.Instr{Op: vm.OpSpecEnter, Dst: auxIdx})
	b.emit(vm.Instr{Op: vm.OpConst, Dst: ctr, A: b.konst(vm.IntValue(0))})
	next := b.emit(vm.Instr{Op: vm.OpForeachNext, Dst: auxIdx, A: fIdx})
	b.emit(vm.Instr{Op: vm.OpLoopBody, Dst: auxIdx, A: b.blockFromSrc(bodyWord.lit), B: next})
	b.code[next].B = int32(len(b.code)) // exhausted -> SpecDone
	b.emit(vm.Instr{Op: vm.OpSpecDone, Dst: auxIdx})
	b.code[enter].A = int32(len(b.code))
	return true
}

// --- expression lowering ------------------------------------------------

// lowerExprText compiles an expression to bytecode, or to a Code == nil
// entry, which the classic evaluator runs, when the tree holds a construct
// outside the lowered subset (see classicNode).
func lowerExprText(src string, pool *vmPool) *vm.ExprProg {
	p := &vm.ExprProg{Src: src}
	root := compileExpr(src)
	if !canLowerExprNode(root) {
		return p
	}
	b := &exprBuilder{
		pool:    pool,
		constIx: make(map[vm.ValueKey]int32),
		nameIx:  make(map[string]int32),
		funcIx:  make(map[string]int32),
	}
	r := b.lower(root)
	b.code = append(b.code, vm.EInstr{Op: vm.EEnd, A: r})
	p.Code = b.code
	p.Consts = b.consts
	p.Names = b.names
	p.Funcs = b.funcs
	p.Blocks = b.blocks
	p.NRegs = b.nreg
	p.NCtl = b.maxCtl
	return p
}

func canLowerExprNode(n exprNode) bool {
	switch t := n.(type) {
	case litNode, *varNode, *bracketNode:
		return true
	case *unNode:
		return canLowerExprNode(t.operand)
	case *binNode:
		if _, ok := vm.BinOpByName(t.op); !ok {
			return false
		}
		return canLowerExprNode(t.lhs) && canLowerExprNode(t.rhs)
	case *andNode:
		return canLowerExprNode(t.lhs) && canLowerExprNode(t.rhs)
	case *orNode:
		return canLowerExprNode(t.lhs) && canLowerExprNode(t.rhs)
	case *ternNode:
		return canLowerExprNode(t.cond) && canLowerExprNode(t.left) && canLowerExprNode(t.right)
	case *funcNode:
		return canLowerExprNode(t.arg)
	}
	return false
}

func vmValueOf(v exprValue) vm.Value {
	switch v.kind {
	case vInt:
		return vm.IntValue(v.i)
	case vFloat:
		return vm.FloatValue(v.f)
	default:
		return vm.StringValue(v.s)
	}
}

// foldExprNode evaluates a constant subtree at compile time. Folding only
// succeeds when every operator application succeeds, so a folded subtree
// is provably side-effect- and error-free; its untaken-side value can
// differ from the executor's (which threads lhs values through untaken
// operators), but untaken values are discarded at every lazy join, so the
// difference is unobservable.
func foldExprNode(n exprNode) (vm.Value, bool) {
	switch t := n.(type) {
	case litNode:
		return vmValueOf(t.v), true
	case *unNode:
		v, ok := foldExprNode(t.operand)
		if !ok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyUnary(t.op, v)
		return out, msg == ""
	case *binNode:
		op, ok := vm.BinOpByName(t.op)
		if !ok {
			return vm.Value{}, false
		}
		a, aok := foldExprNode(t.lhs)
		c, cok := foldExprNode(t.rhs)
		if !aok || !cok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyBinary(op, a, c)
		return out, msg == ""
	case *funcNode:
		a, ok := foldExprNode(t.arg)
		if !ok {
			return vm.Value{}, false
		}
		out, msg := vm.ApplyMathFunc(t.name, a)
		return out, msg == ""
	}
	return vm.Value{}, false
}

type exprBuilder struct {
	pool    *vmPool
	code    []vm.EInstr
	consts  []vm.Value
	constIx map[vm.ValueKey]int32
	names   []string
	nameIx  map[string]int32
	funcs   []string
	funcIx  map[string]int32
	blocks  []vm.Block
	nreg    int32
	ctl     int32
	maxCtl  int32
}

func (b *exprBuilder) reg() int32 {
	r := b.nreg
	b.nreg++
	return r
}

func (b *exprBuilder) konst(v vm.Value) int32 {
	if ix, ok := b.constIx[v.Key()]; ok {
		return ix
	}
	ix := int32(len(b.consts))
	b.consts = append(b.consts, v)
	b.constIx[v.Key()] = ix
	return ix
}

func (b *exprBuilder) name(n string) int32 {
	if ix, ok := b.nameIx[n]; ok {
		return ix
	}
	ix := int32(len(b.names))
	b.names = append(b.names, n)
	b.nameIx[n] = ix
	return ix
}

func (b *exprBuilder) fn(n string) int32 {
	if ix, ok := b.funcIx[n]; ok {
		return ix
	}
	ix := int32(len(b.funcs))
	b.funcs = append(b.funcs, n)
	b.funcIx[n] = ix
	return ix
}

func (b *exprBuilder) pushCtl() {
	b.ctl++
	if b.ctl > b.maxCtl {
		b.maxCtl = b.ctl
	}
}

func (b *exprBuilder) popCtl() { b.ctl-- }

// lower emits the ops evaluating n and returns the result register.
// Callers guarantee canLowerExprNode(n).
func (b *exprBuilder) lower(n exprNode) int32 {
	if v, ok := foldExprNode(n); ok {
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EConst, Dst: dst, A: b.konst(v)})
		return dst
	}
	switch t := n.(type) {
	case *varNode:
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{
			Op: vm.EVar, Dst: dst, A: b.name(t.name), B: b.pool.varSlot(),
		})
		return dst
	case *bracketNode:
		b.blocks = append(b.blocks, vm.Block{Prog: lowerScript(t.script, b.pool)})
		blk := int32(len(b.blocks) - 1)
		skip := int32(0)
		if t.skipOK {
			skip = 1
		}
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EBracket, Dst: dst, A: blk, B: skip})
		return dst
	case *unNode:
		a := b.lower(t.operand)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EUnary, Dst: dst, A: a, B: int32(t.op)})
		return dst
	case *binNode:
		op, _ := vm.BinOpByName(t.op)
		a := b.lower(t.lhs)
		c := b.lower(t.rhs)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EOpOf(op), Dst: dst, A: a, B: c})
		return dst
	case *andNode:
		a := b.lower(t.lhs)
		b.code = append(b.code, vm.EInstr{Op: vm.EAndTest, A: a})
		b.pushCtl()
		c := b.lower(t.rhs)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EAndEnd, Dst: dst, A: a, B: c})
		return dst
	case *orNode:
		a := b.lower(t.lhs)
		b.code = append(b.code, vm.EInstr{Op: vm.EOrTest, A: a})
		b.pushCtl()
		c := b.lower(t.rhs)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EOrEnd, Dst: dst, A: a, B: c})
		return dst
	case *ternNode:
		c := b.lower(t.cond)
		b.code = append(b.code, vm.EInstr{Op: vm.ETernTest, A: c})
		b.pushCtl()
		l := b.lower(t.left)
		b.code = append(b.code, vm.EInstr{Op: vm.ETernElse})
		r := b.lower(t.right)
		b.popCtl()
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.ETernEnd, Dst: dst, A: l, B: r})
		return dst
	case *funcNode:
		a := b.lower(t.arg)
		dst := b.reg()
		b.code = append(b.code, vm.EInstr{Op: vm.EFunc, Dst: dst, A: a, B: b.fn(t.name)})
		return dst
	}
	// Unreachable: canLowerExprNode gates every call.
	dst := b.reg()
	b.code = append(b.code, vm.EInstr{Op: vm.EConst, Dst: dst, A: b.konst(vm.IntValue(0))})
	return dst
}
