package tcl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The expr evaluator: a recursive-descent parser over the (unsubstituted)
// expression text. As in real Tcl, expr performs its own $-variable,
// [command], and "quoted string" substitution, which is why the idiomatic
// braced form `expr {$a < $b}` works: the braces deliver the raw text here.
// The && , || and ?: operators are lazy: the untaken side is parsed but not
// evaluated, so its substitutions never run.

type valueKind int

const (
	vInt valueKind = iota
	vFloat
	vString
)

type exprValue struct {
	kind valueKind
	i    int64
	f    float64
	s    string
}

func intVal(i int64) exprValue     { return exprValue{kind: vInt, i: i} }
func floatVal(f float64) exprValue { return exprValue{kind: vFloat, f: f} }
func strVal(s string) exprValue    { return exprValue{kind: vString, s: s} }
func boolVal(b bool) exprValue {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

func (v exprValue) String() string {
	switch v.kind {
	case vInt:
		return strconv.FormatInt(v.i, 10)
	case vFloat:
		return formatFloat(v.f)
	default:
		return v.s
	}
}

// formatFloat renders a float the way Tcl does: always distinguishable from
// an integer (a trailing ".0" if needed).
func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Inf"
	}
	if math.IsInf(f, -1) {
		return "-Inf"
	}
	s := strconv.FormatFloat(f, 'g', 12, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	return s
}

// numeric coerces v to a numeric value if possible.
func (v exprValue) numeric() (exprValue, bool) {
	switch v.kind {
	case vInt, vFloat:
		return v, true
	default:
		return parseNumber(strings.TrimSpace(v.s))
	}
}

func parseNumber(s string) (exprValue, bool) {
	if s == "" {
		return exprValue{}, false
	}
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return intVal(i), true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return floatVal(f), true
	}
	return exprValue{}, false
}

// truth interprets v as a boolean condition.
func (v exprValue) truth() (bool, error) {
	if n, ok := v.numeric(); ok {
		if n.kind == vInt {
			return n.i != 0, nil
		}
		return n.f != 0, nil
	}
	switch strings.ToLower(strings.TrimSpace(v.s)) {
	case "true", "yes", "on":
		return true, nil
	case "false", "no", "off":
		return false, nil
	}
	return false, fmt.Errorf("expected boolean value but got %q", v.s)
}

// ExprString evaluates a Tcl expression and returns its string result.
func (i *Interp) ExprString(text string) (string, Result) {
	v, res := i.exprValue(text)
	if res.Code != OK {
		return "", res
	}
	return v.String(), Ok("")
}

// ExprBool evaluates a Tcl expression as a condition.
func (i *Interp) ExprBool(text string) (bool, Result) {
	v, res := i.exprValue(text)
	if res.Code != OK {
		return false, res
	}
	b, err := v.truth()
	if err != nil {
		return false, Errf("%v", err)
	}
	return b, Ok("")
}

// ExprInt evaluates a Tcl expression that must yield an integer.
func (i *Interp) ExprInt(text string) (int64, Result) {
	v, res := i.exprValue(text)
	if res.Code != OK {
		return 0, res
	}
	n, ok := v.numeric()
	if !ok {
		return 0, Errf("expected integer but got %q", v.String())
	}
	if n.kind == vFloat {
		return int64(n.f), Ok("")
	}
	return n.i, Ok("")
}

func (i *Interp) exprValue(text string) (exprValue, Result) {
	if i.evalMode == EvalClassic {
		return i.exprValueUncached(text)
	}
	return i.vmExprValue(text)
}

// exprValueUncached is the classic re-parsing evaluator: the referee of
// EvalClassic, and the vm's fallback for an expression it did not lower.
func (i *Interp) exprValueUncached(text string) (exprValue, Result) {
	ep := &exprParser{interp: i, src: text}
	v, res := ep.ternary(true)
	if res.Code != OK {
		return exprValue{}, res
	}
	ep.skipSpace()
	if ep.pos < len(ep.src) {
		return exprValue{}, Errf("syntax error in expression %q", text)
	}
	return v, Ok("")
}

type exprParser struct {
	interp *Interp
	src    string
	pos    int
}

func (e *exprParser) skipSpace() {
	for e.pos < len(e.src) {
		switch e.src[e.pos] {
		case ' ', '\t', '\n', '\r':
			e.pos++
		default:
			return
		}
	}
}

// peekOp matches one of ops (longest first) at the cursor.
func (e *exprParser) peekOp(ops ...string) string {
	e.skipSpace()
	return matchExprOp(e.src[e.pos:], ops...)
}

// matchExprOp matches one of ops at the start of rest, shared by the
// re-parsing evaluator and the AST compiler so both tokenize identically.
func matchExprOp(rest string, ops ...string) string {
	for _, op := range ops {
		if strings.HasPrefix(rest, op) {
			// Guard: "<" must not match "<<" or "<=".
			tail := rest[len(op):]
			if (op == "<" || op == ">") && len(tail) > 0 && (tail[0] == '=' || tail[0] == op[0]) {
				continue
			}
			if (op == "&" || op == "|") && len(tail) > 0 && tail[0] == op[0] {
				continue
			}
			if op == "=" { // never a valid operator alone
				continue
			}
			if op == "!" && len(tail) > 0 && tail[0] == '=' {
				continue
			}
			return op
		}
	}
	return ""
}

func (e *exprParser) consume(op string) { e.pos += len(op) }

func (e *exprParser) ternary(eval bool) (exprValue, Result) {
	cond, res := e.or(eval)
	if res.Code != OK {
		return cond, res
	}
	if e.peekOp("?") == "" {
		return cond, Ok("")
	}
	e.consume("?")
	var take bool
	if eval {
		b, err := cond.truth()
		if err != nil {
			return exprValue{}, Errf("%v", err)
		}
		take = b
	}
	left, res := e.ternary(eval && take)
	if res.Code != OK {
		return left, res
	}
	e.skipSpace()
	if e.pos >= len(e.src) || e.src[e.pos] != ':' {
		return exprValue{}, Errf(`missing ":" in ternary expression`)
	}
	e.pos++
	right, res := e.ternary(eval && !take)
	if res.Code != OK {
		return right, res
	}
	if !eval {
		return intVal(0), Ok("")
	}
	if take {
		return left, Ok("")
	}
	return right, Ok("")
}

func (e *exprParser) or(eval bool) (exprValue, Result) {
	v, res := e.and(eval)
	if res.Code != OK {
		return v, res
	}
	for e.peekOp("||") != "" {
		e.consume("||")
		lhs := false
		if eval {
			b, err := v.truth()
			if err != nil {
				return exprValue{}, Errf("%v", err)
			}
			lhs = b
		}
		rhs, res := e.and(eval && !lhs)
		if res.Code != OK {
			return rhs, res
		}
		if eval {
			if lhs {
				v = boolVal(true)
			} else {
				b, err := rhs.truth()
				if err != nil {
					return exprValue{}, Errf("%v", err)
				}
				v = boolVal(b)
			}
		}
	}
	return v, Ok("")
}

func (e *exprParser) and(eval bool) (exprValue, Result) {
	v, res := e.bitOr(eval)
	if res.Code != OK {
		return v, res
	}
	for e.peekOp("&&") != "" {
		e.consume("&&")
		lhs := true
		if eval {
			b, err := v.truth()
			if err != nil {
				return exprValue{}, Errf("%v", err)
			}
			lhs = b
		}
		rhs, res := e.bitOr(eval && lhs)
		if res.Code != OK {
			return rhs, res
		}
		if eval {
			if !lhs {
				v = boolVal(false)
			} else {
				b, err := rhs.truth()
				if err != nil {
					return exprValue{}, Errf("%v", err)
				}
				v = boolVal(b)
			}
		}
	}
	return v, Ok("")
}

// binaryLevel factors the pattern shared by the plain left-associative
// levels: parse the next tighter level, then fold operators.
func (e *exprParser) binaryLevel(eval bool, next func(bool) (exprValue, Result),
	apply func(op string, a, b exprValue) (exprValue, Result), ops ...string) (exprValue, Result) {
	v, res := next(eval)
	if res.Code != OK {
		return v, res
	}
	for {
		op := e.peekOp(ops...)
		if op == "" {
			return v, Ok("")
		}
		e.consume(op)
		rhs, res := next(eval)
		if res.Code != OK {
			return rhs, res
		}
		if eval {
			v, res = apply(op, v, rhs)
			if res.Code != OK {
				return v, res
			}
		}
	}
}

func (e *exprParser) bitOr(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.bitXor, applyIntOp, "|")
}
func (e *exprParser) bitXor(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.bitAnd, applyIntOp, "^")
}
func (e *exprParser) bitAnd(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.equality, applyIntOp, "&")
}
func (e *exprParser) equality(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.relational, applyCompare, "==", "!=")
}
func (e *exprParser) relational(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.shift, applyCompare, "<=", ">=", "<", ">")
}
func (e *exprParser) shift(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.additive, applyIntOp, "<<", ">>")
}
func (e *exprParser) additive(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.multiplicative, applyArith, "+", "-")
}
func (e *exprParser) multiplicative(eval bool) (exprValue, Result) {
	return e.binaryLevel(eval, e.unary, applyArith, "*", "/", "%")
}

func (e *exprParser) unary(eval bool) (exprValue, Result) {
	e.skipSpace()
	if e.pos < len(e.src) {
		switch c := e.src[e.pos]; c {
		case '-', '+', '!', '~':
			if c == '!' && e.pos+1 < len(e.src) && e.src[e.pos+1] == '=' {
				break
			}
			e.pos++
			v, res := e.unary(eval)
			if res.Code != OK || !eval {
				return v, res
			}
			return applyUnary(c, v)
		}
	}
	return e.primary(eval)
}

func applyUnary(op byte, v exprValue) (exprValue, Result) {
	n, ok := v.numeric()
	if !ok {
		return exprValue{}, Errf("can't use non-numeric string %q as operand of %q", v.String(), string(op))
	}
	switch op {
	case '+':
		return n, Ok("")
	case '-':
		if n.kind == vFloat {
			return floatVal(-n.f), Ok("")
		}
		return intVal(-n.i), Ok("")
	case '!':
		b, _ := n.truth()
		return boolVal(!b), Ok("")
	case '~':
		if n.kind != vInt {
			return exprValue{}, Errf(`can't use floating-point value as operand of "~"`)
		}
		return intVal(^n.i), Ok("")
	}
	return exprValue{}, Errf("unknown unary operator %q", string(op))
}

func applyIntOp(op string, a, b exprValue) (exprValue, Result) {
	an, aok := a.numeric()
	bn, bok := b.numeric()
	if !aok || !bok || an.kind != vInt || bn.kind != vInt {
		return exprValue{}, Errf("can't use non-integer value as operand of %q", op)
	}
	switch op {
	case "|":
		return intVal(an.i | bn.i), Ok("")
	case "^":
		return intVal(an.i ^ bn.i), Ok("")
	case "&":
		return intVal(an.i & bn.i), Ok("")
	case "<<":
		if bn.i < 0 || bn.i > 63 {
			return exprValue{}, Errf("invalid shift count %d", bn.i)
		}
		return intVal(an.i << uint(bn.i)), Ok("")
	case ">>":
		if bn.i < 0 || bn.i > 63 {
			return exprValue{}, Errf("invalid shift count %d", bn.i)
		}
		return intVal(an.i >> uint(bn.i)), Ok("")
	}
	return exprValue{}, Errf("unknown operator %q", op)
}

func applyArith(op string, a, b exprValue) (exprValue, Result) {
	an, aok := a.numeric()
	bn, bok := b.numeric()
	if !aok || !bok {
		return exprValue{}, Errf("can't use non-numeric string as operand of %q", op)
	}
	if an.kind == vInt && bn.kind == vInt {
		switch op {
		case "+":
			return intVal(an.i + bn.i), Ok("")
		case "-":
			return intVal(an.i - bn.i), Ok("")
		case "*":
			return intVal(an.i * bn.i), Ok("")
		case "/":
			if bn.i == 0 {
				return exprValue{}, Errf("divide by zero")
			}
			// Tcl floors integer division toward negative infinity.
			q := an.i / bn.i
			if (an.i%bn.i != 0) && ((an.i < 0) != (bn.i < 0)) {
				q--
			}
			return intVal(q), Ok("")
		case "%":
			if bn.i == 0 {
				return exprValue{}, Errf("divide by zero")
			}
			r := an.i % bn.i
			if r != 0 && ((an.i < 0) != (bn.i < 0)) {
				r += bn.i
			}
			return intVal(r), Ok("")
		}
	}
	af, bf := an.asFloat(), bn.asFloat()
	switch op {
	case "+":
		return floatVal(af + bf), Ok("")
	case "-":
		return floatVal(af - bf), Ok("")
	case "*":
		return floatVal(af * bf), Ok("")
	case "/":
		if bf == 0 {
			return exprValue{}, Errf("divide by zero")
		}
		return floatVal(af / bf), Ok("")
	case "%":
		return exprValue{}, Errf(`can't use floating-point value as operand of "%%"`)
	}
	return exprValue{}, Errf("unknown operator %q", op)
}

func (v exprValue) asFloat() float64 {
	if v.kind == vFloat {
		return v.f
	}
	return float64(v.i)
}

func applyCompare(op string, a, b exprValue) (exprValue, Result) {
	an, aok := a.numeric()
	bn, bok := b.numeric()
	var cmp int
	if aok && bok {
		if an.kind == vInt && bn.kind == vInt {
			switch {
			case an.i < bn.i:
				cmp = -1
			case an.i > bn.i:
				cmp = 1
			}
		} else {
			af, bf := an.asFloat(), bn.asFloat()
			switch {
			case af < bf:
				cmp = -1
			case af > bf:
				cmp = 1
			}
		}
	} else {
		cmp = strings.Compare(a.String(), b.String())
	}
	switch op {
	case "==":
		return boolVal(cmp == 0), Ok("")
	case "!=":
		return boolVal(cmp != 0), Ok("")
	case "<":
		return boolVal(cmp < 0), Ok("")
	case ">":
		return boolVal(cmp > 0), Ok("")
	case "<=":
		return boolVal(cmp <= 0), Ok("")
	case ">=":
		return boolVal(cmp >= 0), Ok("")
	}
	return exprValue{}, Errf("unknown comparison %q", op)
}

// primary parses an operand: a parenthesized subexpression, a number, a
// $variable, a [command], a "quoted string", a {braced string}, or a math
// function call.
func (e *exprParser) primary(eval bool) (exprValue, Result) {
	e.skipSpace()
	if e.pos >= len(e.src) {
		return exprValue{}, Errf("premature end of expression")
	}
	switch c := e.src[e.pos]; {
	case c == '(':
		e.pos++
		v, res := e.ternary(eval)
		if res.Code != OK {
			return v, res
		}
		e.skipSpace()
		if e.pos >= len(e.src) || e.src[e.pos] != ')' {
			return exprValue{}, Errf("looking for close parenthesis")
		}
		e.pos++
		return v, Ok("")
	case c == '$':
		p := &parser{interp: e.interp, src: e.src, pos: e.pos}
		if !eval {
			// Skip the variable reference without reading it.
			n := e.skipVarRef()
			e.pos += n
			return intVal(0), Ok("")
		}
		val, n, res := p.varSubst()
		if res.Code != OK {
			return exprValue{}, res
		}
		e.pos += n
		return operandValue(val), Ok("")
	case c == '[':
		if !eval {
			n, res := e.skipBracket()
			if res.Code != OK {
				return exprValue{}, res
			}
			e.pos += n
			return intVal(0), Ok("")
		}
		e.pos++
		out := e.interp.evalScript(e.src[e.pos:], true)
		if out.Code != OK && out.Code != Return {
			return exprValue{}, out.Result
		}
		e.pos += out.end
		if e.pos >= len(e.src) || e.src[e.pos] != ']' {
			return exprValue{}, Errf("missing close-bracket")
		}
		e.pos++
		return operandValue(out.Value), Ok("")
	case c == '"':
		p := &parser{interp: e.interp, src: e.src, pos: e.pos}
		word, res := p.parseQuotedWordLoose()
		if res.Code != OK {
			return exprValue{}, res
		}
		e.pos = p.pos
		if !eval {
			return intVal(0), Ok("")
		}
		return strVal(word), Ok("")
	case c == '{':
		p := &parser{interp: e.interp, src: e.src, pos: e.pos}
		word, res := p.parseBracedWordLoose()
		if res.Code != OK {
			return exprValue{}, res
		}
		e.pos = p.pos
		return strVal(word), Ok("")
	case c >= '0' && c <= '9' || c == '.':
		return e.number()
	case isVarNameChar(c):
		return e.funcCall(eval)
	default:
		return exprValue{}, Errf("syntax error in expression: unexpected %q", string(c))
	}
}

// skipVarRef measures a $-reference without evaluating it.
func (e *exprParser) skipVarRef() int {
	src := e.src[e.pos:]
	if len(src) < 2 {
		return 1
	}
	if src[1] == '{' {
		if end := strings.IndexByte(src[2:], '}'); end >= 0 {
			return 2 + end + 1
		}
		return len(src)
	}
	j := 1
	for j < len(src) && isVarNameChar(src[j]) {
		j++
	}
	if j < len(src) && src[j] == '(' {
		depth := 1
		k := j + 1
		for k < len(src) && depth > 0 {
			switch src[k] {
			case '(':
				depth++
			case ')':
				depth--
			}
			k++
		}
		return k
	}
	return j
}

// skipBracket measures a [...] without evaluating it.
func (e *exprParser) skipBracket() (int, Result) {
	depth := 0
	for j := e.pos; j < len(e.src); j++ {
		switch e.src[j] {
		case '\\':
			j++
		case '[':
			depth++
		case ']':
			depth--
			if depth == 0 {
				return j - e.pos + 1, Ok("")
			}
		}
	}
	return 0, Errf("missing close-bracket")
}

func (e *exprParser) number() (exprValue, Result) {
	v, n, res := scanExprNumber(e.src, e.pos)
	e.pos = n
	return v, res
}

// scanExprNumber lexes a numeric literal at src[start:], returning the
// value and the index past it. Shared by the re-parsing evaluator and the
// AST compiler.
func scanExprNumber(src string, start int) (exprValue, int, Result) {
	j := start
	seenDot, seenExp := false, false
	if strings.HasPrefix(src[j:], "0x") || strings.HasPrefix(src[j:], "0X") {
		j += 2
		for j < len(src) && isHexDigit(src[j]) {
			j++
		}
		i, err := strconv.ParseInt(src[start:j], 0, 64)
		if err != nil {
			return exprValue{}, j, Errf("malformed number %q", src[start:j])
		}
		return intVal(i), j, Ok("")
	}
	for j < len(src) {
		c := src[j]
		switch {
		case c >= '0' && c <= '9':
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
		case (c == 'e' || c == 'E') && !seenExp && j > start:
			seenExp = true
			if j+1 < len(src) && (src[j+1] == '+' || src[j+1] == '-') {
				j++
			}
		default:
			goto done
		}
		j++
	}
done:
	text := src[start:j]
	if seenDot || seenExp {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return exprValue{}, j, Errf("malformed number %q", text)
		}
		return floatVal(f), j, Ok("")
	}
	i, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		return exprValue{}, j, Errf("malformed number %q", text)
	}
	return intVal(i), j, Ok("")
}

// funcCall parses name(arg[,arg]) math functions: abs, int, round, double.
func (e *exprParser) funcCall(eval bool) (exprValue, Result) {
	start := e.pos
	for e.pos < len(e.src) && isVarNameChar(e.src[e.pos]) {
		e.pos++
	}
	name := e.src[start:e.pos]
	e.skipSpace()
	if e.pos >= len(e.src) || e.src[e.pos] != '(' {
		// Boolean literals are the only bare words Tcl conditions accept.
		switch strings.ToLower(name) {
		case "true", "yes", "on", "false", "no", "off":
			return strVal(name), Ok("")
		}
		return exprValue{}, Errf("syntax error in expression: unexpected bare word %q", name)
	}
	e.pos++
	arg, res := e.ternary(eval)
	if res.Code != OK {
		return arg, res
	}
	e.skipSpace()
	if e.pos >= len(e.src) || e.src[e.pos] != ')' {
		return exprValue{}, Errf("missing close parenthesis in function call")
	}
	e.pos++
	if !eval {
		return intVal(0), Ok("")
	}
	return applyMathFunc(name, arg)
}

// applyMathFunc evaluates a math function call, shared by the re-parsing
// evaluator and the AST's funcNode. Argument checks and the unknown-name
// error happen here — at evaluation, never at parse — so untaken calls are
// free to name unknown functions.
func applyMathFunc(name string, arg exprValue) (exprValue, Result) {
	n, ok := arg.numeric()
	if !ok {
		return exprValue{}, Errf("argument to %s() is not numeric: %q", name, arg.String())
	}
	switch name {
	case "abs":
		if n.kind == vFloat {
			return floatVal(math.Abs(n.f)), Ok("")
		}
		if n.i < 0 {
			return intVal(-n.i), Ok("")
		}
		return n, Ok("")
	case "int":
		return intVal(int64(n.asFloat())), Ok("")
	case "round":
		return intVal(int64(math.Round(n.asFloat()))), Ok("")
	case "double":
		return floatVal(n.asFloat()), Ok("")
	default:
		return exprValue{}, Errf("unknown math function %q", name)
	}
}

// operandValue classifies a substitution result: numeric strings become
// numbers so `$a < $b` compares numerically when it can.
func operandValue(s string) exprValue {
	if n, ok := parseNumber(s); ok {
		return n
	}
	return strVal(s)
}

// parseQuotedWordLoose parses a quoted word without requiring a word
// boundary after the close quote (for use inside expressions).
func (p *parser) parseQuotedWordLoose() (string, Result) {
	p.pos++
	var sb strings.Builder
	for !p.done() {
		if p.src[p.pos] == '"' {
			p.pos++
			return sb.String(), Ok("")
		}
		if res := p.substOne(&sb, substAll); res.Code != OK {
			return "", res
		}
	}
	return "", Errf("missing close-quote")
}

// parseBracedWordLoose parses a braced word without the word-boundary check.
func (p *parser) parseBracedWordLoose() (string, Result) {
	depth := 0
	start := p.pos + 1
	for j := p.pos; j < len(p.src); j++ {
		switch p.src[j] {
		case '\\':
			j++
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				word := p.src[start:j]
				p.pos = j + 1
				return word, Ok("")
			}
		}
	}
	return "", Errf("missing close-brace")
}
