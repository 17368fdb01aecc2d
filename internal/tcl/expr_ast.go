package tcl

import "strings"

// The expr AST: the vm's expression front end. The classic evaluator
// (exprParser) re-lexes the expression on every call; compileExpr parses
// it once into an operator tree that vm_compile.go lowers to bytecode,
// deferring only the value-dependent work — variable reads, [command]
// scripts, truth tests — to execution. Anything the lowering does not
// express (a parse error, a quoted string that substitutes, a computed
// array element, a ternary cut before its ':', a bracket whose untaken
// lexical skip would end elsewhere) leaves the whole expression to the
// classic evaluator, so the tree need only be exact where it lowers.

// exprNode is one node of a compiled expression: one of the node types
// below.
type exprNode any

// compileExpr parses text into an expression tree.
func compileExpr(text string) exprNode {
	ec := &exprCompiler{compiler: compiler{parser{src: text}}}
	root := ec.ternary()
	ec.skipSpace()
	if ec.halted || ec.pos < len(ec.src) {
		// A parse error, a doomed embedded script, or trailing garbage:
		// the classic parser raises it in source order.
		return classicNode{}
	}
	return root
}

// exprCompiler mirrors exprParser's grammar, producing nodes instead of
// values. It embeds compiler for the script-substitution machinery behind
// quoted strings, variable references, and bracket operands. halted is set
// when compilation hit a parse error or a poisoned embedded script; every
// level then unwinds without consuming further operators, and the
// expression is left to the classic evaluator.
type exprCompiler struct {
	compiler
	halted bool
}

// fail records a parse error at this source position.
func (ec *exprCompiler) fail() exprNode {
	ec.halted = true
	return classicNode{}
}

func (ec *exprCompiler) skipSpace() {
	for ec.pos < len(ec.src) {
		switch ec.src[ec.pos] {
		case ' ', '\t', '\n', '\r':
			ec.pos++
		default:
			return
		}
	}
}

func (ec *exprCompiler) peekOp(ops ...string) string {
	ec.skipSpace()
	return matchExprOp(ec.src[ec.pos:], ops...)
}

func (ec *exprCompiler) ternary() exprNode {
	cond := ec.or()
	if ec.halted || ec.peekOp("?") == "" {
		return cond
	}
	ec.pos++ // consume '?'
	left := ec.ternary()
	if ec.halted {
		return left
	}
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != ':' {
		// Missing ":", raised after the cond and taken arm evaluated.
		return ec.fail()
	}
	ec.pos++
	right := ec.ternary()
	return &ternNode{cond: cond, left: left, right: right}
}

func (ec *exprCompiler) or() exprNode {
	n := ec.and()
	for !ec.halted && ec.peekOp("||") != "" {
		ec.pos += 2
		n = &orNode{lhs: n, rhs: ec.and()}
	}
	return n
}

func (ec *exprCompiler) and() exprNode {
	n := ec.bitOr()
	for !ec.halted && ec.peekOp("&&") != "" {
		ec.pos += 2
		n = &andNode{lhs: n, rhs: ec.bitOr()}
	}
	return n
}

func (ec *exprCompiler) binaryLevel(next func() exprNode, ops ...string) exprNode {
	n := next()
	for !ec.halted {
		op := ec.peekOp(ops...)
		if op == "" {
			break
		}
		ec.pos += len(op)
		n = &binNode{op: op, lhs: n, rhs: next()}
	}
	return n
}

func (ec *exprCompiler) bitOr() exprNode {
	return ec.binaryLevel(ec.bitXor, "|")
}
func (ec *exprCompiler) bitXor() exprNode {
	return ec.binaryLevel(ec.bitAnd, "^")
}
func (ec *exprCompiler) bitAnd() exprNode {
	return ec.binaryLevel(ec.equality, "&")
}
func (ec *exprCompiler) equality() exprNode {
	return ec.binaryLevel(ec.relational, "==", "!=")
}
func (ec *exprCompiler) relational() exprNode {
	return ec.binaryLevel(ec.shift, "<=", ">=", "<", ">")
}
func (ec *exprCompiler) shift() exprNode {
	return ec.binaryLevel(ec.additive, "<<", ">>")
}
func (ec *exprCompiler) additive() exprNode {
	return ec.binaryLevel(ec.multiplicative, "+", "-")
}
func (ec *exprCompiler) multiplicative() exprNode {
	return ec.binaryLevel(ec.unaryLevel, "*", "/", "%")
}

func (ec *exprCompiler) unaryLevel() exprNode {
	ec.skipSpace()
	if ec.pos < len(ec.src) {
		switch c := ec.src[ec.pos]; c {
		case '-', '+', '!', '~':
			if c == '!' && ec.pos+1 < len(ec.src) && ec.src[ec.pos+1] == '=' {
				break
			}
			ec.pos++
			return &unNode{op: c, operand: ec.unaryLevel()}
		}
	}
	return ec.primary()
}

func (ec *exprCompiler) primary() exprNode {
	ec.skipSpace()
	if ec.pos >= len(ec.src) {
		return ec.fail() // premature end of expression
	}
	switch c := ec.src[ec.pos]; {
	case c == '(':
		ec.pos++
		n := ec.ternary()
		if ec.halted {
			return n
		}
		ec.skipSpace()
		if ec.pos >= len(ec.src) || ec.src[ec.pos] != ')' {
			return ec.fail() // looking for close parenthesis
		}
		ec.pos++
		return n
	case c == '$':
		seg, n, res, poisoned := ec.compileVarRef()
		if res.Code != OK || poisoned {
			return ec.fail()
		}
		ec.pos += n
		switch {
		case seg.kind == segLiteral:
			// A bare '$' substitutes to itself.
			return litNode{v: strVal(seg.text)}
		case seg.kind == segVar && plainVarName(seg.text):
			return &varNode{name: seg.text}
		}
		// Array elements, including ${a(b)} spellings, stay classic.
		return classicNode{}
	case c == '[':
		// The untaken side of a lazy operator skips brackets lexically
		// (exprParser.skipBracket) and parses on from where the skip ends.
		// The bracket lowers only when that skip fails (an error either
		// way, which skipOK records) or ends on the ']' the script parse
		// ends on.
		skipP := &exprParser{src: ec.src, pos: ec.pos}
		skipN, skipRes := skipP.skipBracket()
		ec.pos++
		nested := (&compiler{parser{src: ec.src, pos: ec.pos}}).compile(true)
		if nested.doomed() || !nested.endAtBracket {
			return ec.fail()
		}
		ec.pos = nested.end + 1 // consume ']'
		skipOK := skipRes.Code == OK
		if skipOK && skipP.pos+skipN != ec.pos {
			return classicNode{}
		}
		return &bracketNode{script: nested, skipOK: skipOK}
	case c == '"':
		return ec.compileQuotedLoose()
	case c == '{':
		word, res := ec.parseBracedWordLoose()
		if res.Code != OK {
			return ec.fail()
		}
		return litNode{v: strVal(word)}
	case c >= '0' && c <= '9' || c == '.':
		v, n, res := scanExprNumber(ec.src, ec.pos)
		ec.pos = n
		if res.Code != OK {
			return ec.fail()
		}
		return litNode{v: v}
	case isVarNameChar(c):
		return ec.funcCall()
	default:
		return ec.fail() // unexpected character
	}
}

// compileQuotedLoose compiles a quoted-string operand (the expression form
// has no word-boundary check after the close quote). Only a string with
// nothing to substitute lowers: the classic evaluator substitutes quoted
// strings even on untaken sides, so any other stays classic.
func (ec *exprCompiler) compileQuotedLoose() exprNode {
	ec.pos++ // consume opening quote
	var b segBuilder
	for !ec.done() {
		if ec.src[ec.pos] == '"' {
			ec.pos++
			w := b.word()
			if w.segs == nil {
				return litNode{v: strVal(w.lit)}
			}
			return classicNode{}
		}
		if res, poisoned := ec.compileSubstUnit(&b); res.Code != OK || poisoned {
			return ec.fail()
		}
	}
	return ec.fail() // missing close-quote
}

// funcCall compiles name(arg) math functions and bare boolean words.
func (ec *exprCompiler) funcCall() exprNode {
	start := ec.pos
	for ec.pos < len(ec.src) && isVarNameChar(ec.src[ec.pos]) {
		ec.pos++
	}
	name := ec.src[start:ec.pos]
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != '(' {
		switch strings.ToLower(name) {
		case "true", "yes", "on", "false", "no", "off":
			return litNode{v: strVal(name)}
		}
		return ec.fail() // unexpected bare word
	}
	ec.pos++
	arg := ec.ternary()
	if ec.halted {
		return arg
	}
	ec.skipSpace()
	if ec.pos >= len(ec.src) || ec.src[ec.pos] != ')' {
		return ec.fail() // missing close parenthesis in function call
	}
	ec.pos++
	return &funcNode{name: name, arg: arg}
}

// --- nodes --------------------------------------------------------------

// classicNode marks a construct the vm does not lower; an expression that
// holds one runs on the classic evaluator.
type classicNode struct{}

// litNode is a value fixed at compile time: numbers, braced strings, bare
// boolean words, substitution-free quoted strings, and the lone '$'.
type litNode struct{ v exprValue }

// varNode reads a plain scalar; untaken sides skip the read.
type varNode struct{ name string }

// bracketNode runs a [command] script; untaken sides skip it, failing
// when the lexical skip would (skipOK false).
type bracketNode struct {
	script *compiledScript
	skipOK bool
}

type unNode struct {
	op      byte
	operand exprNode
}

type binNode struct {
	op       string
	lhs, rhs exprNode
}

type orNode struct{ lhs, rhs exprNode }

type andNode struct{ lhs, rhs exprNode }

type ternNode struct{ cond, left, right exprNode }

type funcNode struct {
	name string
	arg  exprNode
}
