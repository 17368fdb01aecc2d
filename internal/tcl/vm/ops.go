package vm

// Script machine -----------------------------------------------------------
//
// A compiled script is a flat instruction list over a small register file.
// Registers hold Values and are used only for building the words of one
// command at a time; control-flow specializations (if/while/foreach) are
// jump-threaded into the instruction stream so loop iterations never
// re-enter the generic dispatcher. Anything the compiler cannot express —
// words with computed array indices, commands carrying parse errors — is
// lowered to OpCmd, which hands that one command to the host's classic
// parser. The fallback makes lowering total: every script compiles, and
// wherever the bytecode does not run a command itself, the classic
// evaluator — the referee the bytecode is proven against — runs it.

// Op is a script-machine opcode.
type Op uint8

const (
	// OpConst loads a pooled constant: r[Dst] = Consts[A].
	OpConst Op = iota
	// OpVarRead reads scalar $Names[A] into r[Dst]; B is the variable
	// inline-cache slot. A failed read aborts the command like a classic
	// substitution error (no step charged, no ErrorInfo note). The register
	// carries the variable's list form when it has one; C != 0 marks the
	// list word of a list command, whose read parses the value as a list
	// first (memoizing the form on the variable). A value that does not
	// parse stays a string, and the command reports the parse error.
	OpVarRead
	// OpArrRead reads array element $Names[A](Names[B]) into r[Dst]; C is
	// the variable inline-cache slot.
	OpArrRead
	// OpConcat joins r[A .. A+B) into r[Dst].
	OpConcat
	// OpBracket runs Blocks[A] as a [bracket] substitution into r[Dst]:
	// no script-level step, `return` accepted only when the block ends at
	// its ']'.
	OpBracket
	// OpInvoke dispatches a command through the inline cache in aux Dst.
	// Words are LitWords[aux.LitIdx] when every word is literal, else
	// r[A .. A+B). Equivalent to EvalWords on the substituted words.
	OpInvoke
	// OpCmd runs host command #A (one command of the source script) on
	// the classic parse-substitute-dispatch path. Universal fallback; the
	// host table lives alongside the program.
	OpCmd
	// OpJump continues at pc = A.
	OpJump
	// OpSpecEnter opens a specialized if/while/foreach: verify the command
	// word still binds the canonical builtin (slot aux.SpecSlot) and that
	// no Trace/DispatchHook is armed, then charge the dispatch step. On
	// guard failure the command runs generically and continues at pc = A.
	OpSpecEnter
	// OpTestExpr evaluates condition Exprs[A] as a boolean; false
	// continues at pc = B. Errors finish the command like a failed `if`.
	OpTestExpr
	// OpIfBody runs arm Blocks[A] with EvalScript framing; on OK the
	// result becomes the command result and control continues at pc = B.
	// Non-OK codes finish the command (the arm's code is `if`'s code).
	OpIfBody
	// OpLoopBody runs loop body Blocks[A]; OK/continue loops back to
	// pc = B, break falls through, return/error finish the command.
	OpLoopBody
	// OpForeachNext advances foreach site aux Dst over Foreach[A]: the
	// first step takes the list form of the list register (a list that
	// does not parse fails the command), and each step assigns the next
	// item or, when the list is exhausted, continues at pc = B.
	OpForeachNext
	// OpSpecDone completes a specialized command with an empty OK result.
	OpSpecDone
	// OpSetVar is specialized `set Names[A] r[B]` (var cache slot C).
	OpSetVar
	// OpGetVar is specialized one-argument `set Names[A]` (slot C).
	OpGetVar
	// OpIncr is specialized `incr Names[A]` by Consts[B] (slot C);
	// B < 0 means the default increment of 1.
	OpIncr
	// OpExprCmd is specialized `expr {…}` over Exprs[A].
	OpExprCmd
	// OpLindex, OpLlength and OpSplit are the specialized list commands
	// of aux Dst over its argument registers (aux.Args, aux.NArgs). They
	// read a list argument's parsed form when the register carries one;
	// split's result is a native list whose string is rendered only when
	// something reads it.
	OpLindex
	OpLlength
	OpSplit
)

var opNames = [...]string{
	OpConst: "const", OpVarRead: "var", OpArrRead: "arr", OpConcat: "concat",
	OpBracket: "bracket", OpInvoke: "invoke", OpCmd: "cmd", OpJump: "jump",
	OpSpecEnter: "spec", OpTestExpr: "test",
	OpIfBody: "ifbody", OpLoopBody: "loop", OpForeachNext: "fornext",
	OpSpecDone: "done", OpSetVar: "setvar", OpGetVar: "getvar",
	OpIncr: "incr", OpExprCmd: "exprcmd",
	OpLindex: "lindex", OpLlength: "llength", OpSplit: "split",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op?"
}

// Instr is one script-machine instruction. Field meaning is per-opcode.
type Instr struct {
	Op           Op
	Dst, A, B, C int32
}

// CmdAux is the per-command-site metadata shared by the ops of one
// compiled command: the dispatch name, the literal word list, the
// parser's bracket bookkeeping, and the inline-cache slots.
type CmdAux struct {
	// Name is the command word when literal ("" for computed names).
	Name string
	// LitIdx indexes LitWords when every word is literal, else -1.
	LitIdx int32
	// BracketOK mirrors compiledCmd.bracketOK: the command sits on the
	// terminating ']' of a bracketed script, so a `return` escaping it is
	// accepted by the enclosing substitution.
	BracketOK bool
	// CacheSlot is the command-dispatch inline-cache slot (-1 none).
	CacheSlot int32
	// SpecSlot is the canonical-builtin guard slot for specialized
	// commands (-1 none).
	SpecSlot int32
	// Args is the first of NArgs registers holding the words after the
	// name of a list command or foreach site; NArgs is 0 at the sites
	// whose opcode names its own operands.
	Args, NArgs int32
}

// ForeachAux is the iteration state layout of a specialized foreach.
type ForeachAux struct {
	List    int32 // register holding the list word
	Counter int32 // register holding the next item's index
	Name    int32 // Names index: the loop variable
	VarSlot int32 // variable inline-cache slot for the loop variable
}

// Block is a nested script: the lowered program plus its source text. The
// source is the compile→disasm→recompile identity key and the executor's
// last-resort fallback (re-entering EvalScript) if Prog is absent.
type Block struct {
	Prog *Program
	Src  string
}

// SlotCounts sizes the per-entry runtime cache arrays. Slots are numbered
// across the whole program tree (blocks and embedded expressions included),
// so only the root's counts matter.
type SlotCounts struct {
	Cmds, Vars, Specs int32
}

// Program is one compiled script. All pools are per-program; cache slot
// numbers are tree-global (see SlotCounts).
type Program struct {
	Code     []Instr
	Consts   []Value
	Names    []string
	LitWords [][]string
	Blocks   []Block
	Exprs    []*ExprProg
	Aux      []CmdAux
	Foreach  []ForeachAux
	// HostCmds counts the OpCmd fallback entries; the host-side table of
	// original commands is carried next to the program by its owner.
	HostCmds int32
	NRegs    int32
	// EndAtBracket mirrors compiledScript.endAtBracket: the script ended
	// on the ']' of a bracketed substitution.
	EndAtBracket bool
	// Slots is set on the root program only.
	Slots SlotCounts
}

// Expression machine -------------------------------------------------------
//
// Expressions compile to their own instruction set over Value registers,
// with the classic evaluator's laziness encoded as a runtime `taken` flag:
// &&, ||, and ?: push a control frame, flip takenness for the lazy side,
// and the join op selects or discards results. Untaken sides still
// execute — variable reads and operator application are skipped, value
// flow is preserved — so error order and side effects match the classic
// evaluator operator for operator.

// EOp is an expression-machine opcode.
type EOp uint8

const (
	// EConst loads Consts[A] (constants ignore takenness).
	EConst EOp = iota
	// EVar reads scalar $Names[A] (slot B); untaken sides skip the read
	// and yield 0.
	EVar
	// EBracket runs Blocks[A] as a [command] operand; B != 0 records that
	// the classic lexical skip of the untaken side would have succeeded.
	EBracket
	// EUnary applies operator byte B to r[A]; untaken passes r[A] through.
	EUnary
	// Binary operators, contiguous and in BinOp order: r[Dst] = r[A] op
	// r[B]; untaken sides yield r[A] (the lhs).
	EAdd
	ESub
	EMul
	EDiv
	EMod
	EBitOr
	EBitXor
	EBitAnd
	EShl
	EShr
	EEq
	ENe
	ELt
	EGt
	ELe
	EGe
	// EAndTest opens &&: tests r[A] when taken, pushes a control frame,
	// and untakes the rhs when the lhs is false.
	EAndTest
	// EAndEnd closes &&: pops the frame and combines r[A] (lhs) and r[B]
	// (rhs) into r[Dst].
	EAndEnd
	// EOrTest / EOrEnd are the || twins.
	EOrTest
	EOrEnd
	// ETernTest opens ?: on r[A]; ETernElse flips takenness for the else
	// arm; ETernEnd selects r[A] (then) or r[B] (else) into r[Dst].
	ETernTest
	ETernElse
	ETernEnd
	// EFunc applies math function Funcs[B] to r[A]; untaken yields 0.
	EFunc
	// EEnd finishes the expression with r[A].
	EEnd
)

var eopNames = [...]string{
	EConst: "const", EVar: "var", EBracket: "bracket", EUnary: "unary",
	EAdd: "add", ESub: "sub", EMul: "mul", EDiv: "div", EMod: "mod",
	EBitOr: "bitor", EBitXor: "bitxor", EBitAnd: "bitand",
	EShl: "shl", EShr: "shr", EEq: "eq", ENe: "ne", ELt: "lt", EGt: "gt",
	ELe: "le", EGe: "ge", EAndTest: "and?", EAndEnd: "and=",
	EOrTest: "or?", EOrEnd: "or=", ETernTest: "tern?", ETernElse: "tern:",
	ETernEnd: "tern=", EFunc: "func", EEnd: "end",
}

func (op EOp) String() string {
	if int(op) < len(eopNames) {
		return eopNames[op]
	}
	return "eop?"
}

// BinOpOf maps a binary-operator opcode to its BinOp.
func BinOpOf(op EOp) BinOp { return BinOp(op - EAdd) }

// EOpOf maps a BinOp to its expression opcode.
func EOpOf(op BinOp) EOp { return EAdd + EOp(op) }

// EInstr is one expression-machine instruction.
type EInstr struct {
	Op        EOp
	Dst, A, B int32
}

// ExprProg is one compiled expression. A nil Code means the expression
// uses a construct the compiler does not lower (quoted substitutions,
// computed array elements, parse errors); the host's classic evaluator
// then runs Src. Slot numbers are owned by the enclosing
// program tree (or by the standalone expression entry).
type ExprProg struct {
	Code   []EInstr
	Consts []Value
	Names  []string
	Funcs  []string
	Blocks []Block
	NRegs  int32
	NCtl   int32
	Src    string
}

// Lowered reports whether the expression compiled to bytecode.
func (p *ExprProg) Lowered() bool { return p != nil && p.Code != nil }
