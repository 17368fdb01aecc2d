package tcl

import "strings"

// The skeleton compiler: the vm's script front end. Classic Tcl re-lexes
// every script string each time it is evaluated; compileScript instead
// parses a script string once into a command skeleton — commands of words,
// words of segments (literal runs, $variable references, [bracket]
// scripts) — which vm_compile.go lowers to bytecode. Skeletons are pure
// functions of the script text, so the lowered programs are memoized by
// that text (Interp.vmCache): redefining a proc or renaming a command can
// never serve a stale body, because bodies are keyed by their source and
// command dispatch stays by-name at evaluation time.
//
// Error timing is preserved exactly: the classic evaluator parses as it
// goes, so a syntax error after a runnable prefix surfaces only once
// evaluation reaches it. Compilation is therefore fail-soft — the commands
// before a parse error are kept, and the failing command is marked so the
// vm hands it to the classic parser, which raises the error when (and only
// when) execution arrives at that point.

type segKind uint8

const (
	// segLiteral is fixed text (including decoded backslash escapes).
	segLiteral segKind = iota
	// segVar is a $name or ${name} scalar reference, resolved at eval time.
	segVar
	// segVarArr is a $name(index) element reference; the index is itself a
	// segment list substituted at eval time.
	segVarArr
	// segVarArrOpen is a $name( reference whose ')' never arrives. The
	// classic scanner substitutes the index as it looks for the paren, so
	// an inner substitution failure outranks the missing-paren report; the
	// vm leaves the command to the classic parser, which keeps that order.
	segVarArrOpen
	// segScript is a [command] substitution holding a compiled script.
	segScript
)

// wordSeg is one substitution unit of a word.
type wordSeg struct {
	kind   segKind
	text   string          // literal text, or the variable name
	index  []wordSeg       // segVarArr: the array index segments
	script *compiledScript // segScript: the bracketed script
}

// compiledWord is one word of a command. A word with segs == nil is fully
// literal and evaluates to lit with no work at all.
type compiledWord struct {
	lit  string
	segs []wordSeg
}

// compiledCmd is one command: its words plus the parser bookkeeping the
// classic evaluator exposes through error behavior.
type compiledCmd struct {
	words []compiledWord
	// start is the offset in compiledScript.src where the classic parser
	// begins this command.
	start int
	// litWords caches the substituted word slice when every word is
	// literal, so dispatching the lowered command allocates nothing.
	// Commands must treat their argument slice as read-only (they do).
	litWords []string
	// bracketOK records whether the parser sits exactly on the terminating
	// ']' after this command — the classic evaluator only accepts a
	// `return` escaping a [bracket] substitution from that position.
	bracketOK bool
	// poisoned marks a command whose word list embeds a doomed nested
	// [script]; its nested prefix still runs (substitution reaches it and
	// fails), but the command itself must never dispatch.
	poisoned bool
	// parseErr marks a word-level parse error (missing close-quote or
	// close-brace, malformed variable reference). The classic evaluator
	// substitutes as it parses, so the complete words before the failure
	// and the failing word's prefix still run before the error surfaces;
	// the vm leaves such a command to the classic parser.
	parseErr bool
}

// compiledScript is the parse-once form of a script string.
type compiledScript struct {
	cmds []compiledCmd
	// src is the text the command offsets index: the whole source string
	// the compiler walked, which for a [bracket] script is the enclosing
	// script's (or expression's) text. bracketed reports that the script is
	// the inside of a command substitution, ending at an unquoted ']'.
	src       string
	bracketed bool
	// end is the index just past the last consumed byte — for bracketed
	// scripts, the position of the terminating ']'.
	end int
	// endAtBracket reports that compilation ended on the terminating ']'
	// of a bracketed script.
	endAtBracket bool
}

// doomed reports that evaluating this script is guaranteed to end in a
// parse error in its final command, so nothing can be parsed after it.
func (cs *compiledScript) doomed() bool {
	n := len(cs.cmds)
	return n > 0 && cs.cmds[n-1].parseErr
}

// compiler walks a script string producing compiledScript structures. It
// embeds parser for the shared lexical helpers (separator skipping, braced
// words, backslash decoding); the interp field stays nil because
// compilation never substitutes.
type compiler struct {
	parser
}

// compileScript parses src into a skeleton. bracketed mirrors evalScript:
// compilation stops at an unquoted ']' at command level.
func compileScript(src string, bracketed bool) *compiledScript {
	c := &compiler{parser{src: src}}
	return c.compile(bracketed)
}

func (c *compiler) compile(bracketed bool) *compiledScript {
	cs := &compiledScript{src: c.src, bracketed: bracketed}
	for {
		c.skipCommandSeparators()
		if c.done() {
			cs.end = c.pos
			return cs
		}
		if bracketed && c.src[c.pos] == ']' {
			cs.end = c.pos
			cs.endAtBracket = true
			return cs
		}
		if c.src[c.pos] == '#' {
			c.skipComment()
			continue
		}
		start := c.pos
		words, failed, terminated, poisoned := c.compileCommand(bracketed)
		if failed {
			// Word-level parse error: the words before it still
			// substitute (the classic evaluator ran them on the way to
			// the error), then the error surfaces.
			cs.cmds = append(cs.cmds, compiledCmd{words: words, start: start, parseErr: true})
			cs.end = c.pos
			return cs
		}
		if len(words) > 0 {
			cmd := compiledCmd{
				words:     words,
				start:     start,
				bracketOK: c.pos < len(c.src) && c.src[c.pos] == ']',
				poisoned:  poisoned,
			}
			if lits := literalWords(words); lits != nil {
				cmd.litWords = lits
			}
			cs.cmds = append(cs.cmds, cmd)
		}
		if poisoned {
			// Parsing cannot continue past the embedded error; the error
			// itself is raised when the poisoned word is substituted.
			cs.end = c.pos
			return cs
		}
		if terminated {
			cs.end = c.pos
			cs.endAtBracket = true
			return cs
		}
	}
}

// literalWords returns the substituted word list if every word is literal.
func literalWords(words []compiledWord) []string {
	for i := range words {
		if words[i].segs != nil {
			return nil
		}
	}
	out := make([]string, len(words))
	for i := range words {
		out[i] = words[i].lit
	}
	return out
}

// compileCommand mirrors parser.parseCommand: it gathers the words of one
// command, stopping at a newline or semicolon (consumed) or, in bracketed
// mode, before ']'. poisoned reports that a word embeds a doomed nested
// script; failed reports a word-level parse error. Either stops
// compilation of the enclosing script.
func (c *compiler) compileCommand(bracketed bool) (words []compiledWord, failed, terminated, poisoned bool) {
	for {
		if c.done() {
			return words, false, false, false
		}
		switch ch := c.src[c.pos]; {
		case ch == '\n' || ch == ';':
			c.pos++
			return words, false, false, false
		case bracketed && ch == ']':
			return words, false, true, false
		}
		word, res, wordPoisoned := c.compileWord(bracketed)
		if res.Code != OK {
			return words, true, false, false
		}
		words = append(words, word)
		if wordPoisoned {
			return words, false, false, true
		}
		if !c.skipInterWordSpace() {
			if c.done() {
				return words, false, false, false
			}
			continue
		}
	}
}

// compileWord compiles a single word starting at c.pos.
func (c *compiler) compileWord(bracketed bool) (word compiledWord, res Result, poisoned bool) {
	switch c.src[c.pos] {
	case '{':
		lit, res := c.parseBracedWord()
		if res.Code != OK {
			return compiledWord{}, res, false
		}
		return compiledWord{lit: lit}, Ok(""), false
	case '"':
		return c.compileQuotedWord(bracketed)
	default:
		return c.compileBareWord(bracketed)
	}
}

func (c *compiler) compileQuotedWord(bracketed bool) (compiledWord, Result, bool) {
	c.pos++ // consume opening quote
	var b segBuilder
	for !c.done() {
		if c.src[c.pos] == '"' {
			c.pos++
			if !c.atWordEnd() && !(bracketed && !c.done() && c.src[c.pos] == ']') {
				return compiledWord{}, Errf("extra characters after close-quote"), false
			}
			return b.word(), Ok(""), false
		}
		res, poisoned := c.compileSubstUnit(&b)
		if res.Code != OK {
			return compiledWord{}, res, false
		}
		if poisoned {
			return b.word(), Ok(""), true
		}
	}
	return compiledWord{}, Errf("missing close-quote"), false
}

func (c *compiler) compileBareWord(bracketed bool) (compiledWord, Result, bool) {
	var b segBuilder
	for !c.done() {
		ch := c.src[c.pos]
		switch ch {
		case ' ', '\t', '\r', '\n', ';':
			return b.word(), Ok(""), false
		case ']':
			if bracketed {
				return b.word(), Ok(""), false
			}
		case '\\':
			if c.pos+1 < len(c.src) && c.src[c.pos+1] == '\n' {
				return b.word(), Ok(""), false
			}
		}
		res, poisoned := c.compileSubstUnit(&b)
		if res.Code != OK {
			return compiledWord{}, res, false
		}
		if poisoned {
			return b.word(), Ok(""), true
		}
	}
	return b.word(), Ok(""), false
}

// compileSubstUnit compiles one substitution unit (the structural twin of
// parser.substOne). poisoned reports that a nested [script] carries a parse
// error, which stops compilation of everything enclosing it.
func (c *compiler) compileSubstUnit(b *segBuilder) (Result, bool) {
	switch ch := c.src[c.pos]; ch {
	case '\\':
		rep, n := backslashSubst(c.src[c.pos:])
		b.literal(rep)
		c.pos += n
	case '$':
		seg, n, res, poisoned := c.compileVarRef()
		if res.Code != OK {
			return res, false
		}
		b.seg(seg)
		c.pos += n
		if poisoned {
			// The array index embeds a script with a parse error;
			// substituting this segment always fails, and the classic
			// evaluator never parses past that point.
			return Ok(""), true
		}
	case '[':
		c.pos++
		sub := &compiler{parser{src: c.src, pos: c.pos}}
		nested := sub.compile(true)
		if nested.doomed() {
			// The classic evaluator runs the nested prefix, hits the parse
			// error, and never looks at anything beyond it.
			b.seg(wordSeg{kind: segScript, script: nested})
			c.pos = nested.end
			return Ok(""), true
		}
		if !nested.endAtBracket {
			// Input exhausted before the terminator: the nested commands
			// still run before the missing-close-bracket error surfaces.
			b.seg(wordSeg{kind: segScript, script: nested})
			c.pos = nested.end
			return Ok(""), true
		}
		b.seg(wordSeg{kind: segScript, script: nested})
		c.pos = nested.end + 1 // consume ']'
	default:
		b.literalByte(ch)
		c.pos++
	}
	return Ok(""), false
}

// compileVarRef compiles a $-substitution beginning at c.pos (which holds
// '$'), returning the segment and the number of source bytes consumed. It
// mirrors parser.varSubst, deferring variable reads to evaluation. poisoned
// reports that the array index embeds a script with a parse error, which
// halts compilation of everything enclosing it.
func (c *compiler) compileVarRef() (wordSeg, int, Result, bool) {
	src := c.src[c.pos:]
	if len(src) < 2 {
		return wordSeg{kind: segLiteral, text: "$"}, 1, Ok(""), false
	}
	if src[1] == '{' {
		end := strings.IndexByte(src[2:], '}')
		if end < 0 {
			return wordSeg{}, 0, Errf(`missing close-brace for variable name`), false
		}
		return wordSeg{kind: segVar, text: src[2 : 2+end]}, 2 + end + 1, Ok(""), false
	}
	j := 1
	for j < len(src) && isVarNameChar(src[j]) {
		j++
	}
	if j == 1 {
		return wordSeg{kind: segLiteral, text: "$"}, 1, Ok(""), false
	}
	name := src[1:j]
	if j < len(src) && src[j] == '(' {
		// Array element: the index itself undergoes substitution.
		sub := &compiler{parser{src: c.src, pos: c.pos + j + 1}}
		var ib segBuilder
		for !sub.done() && sub.src[sub.pos] != ')' {
			res, poisoned := sub.compileSubstUnit(&ib)
			if res.Code != OK {
				return wordSeg{}, 0, res, false
			}
			if poisoned {
				// A nested [script] inside the index carries a parse
				// error; substituting the index is guaranteed to fail,
				// and the classic parser raises it.
				w := ib.word()
				return wordSeg{kind: segVarArr, text: name, index: wordSegs(w)},
					sub.pos - c.pos, Ok(""), true
			}
		}
		if sub.done() {
			return wordSeg{kind: segVarArrOpen, text: name}, sub.pos - c.pos, Ok(""), false
		}
		sub.pos++ // consume ')'
		w := ib.word()
		return wordSeg{kind: segVarArr, text: name, index: wordSegs(w)},
			sub.pos - c.pos, Ok(""), false
	}
	return wordSeg{kind: segVar, text: name}, j, Ok(""), false
}

// wordSegs normalizes a compiledWord into a segment list (a literal word
// becomes a single literal segment).
func wordSegs(w compiledWord) []wordSeg {
	if w.segs != nil {
		return w.segs
	}
	return []wordSeg{{kind: segLiteral, text: w.lit}}
}

// segBuilder accumulates word segments, merging adjacent literal runs and
// collapsing all-literal words into a plain string.
type segBuilder struct {
	segs []wordSeg
	lit  strings.Builder
}

func (b *segBuilder) literal(s string) { b.lit.WriteString(s) }

func (b *segBuilder) literalByte(ch byte) { b.lit.WriteByte(ch) }

func (b *segBuilder) flush() {
	if b.lit.Len() > 0 {
		b.segs = append(b.segs, wordSeg{kind: segLiteral, text: b.lit.String()})
		b.lit.Reset()
	}
}

func (b *segBuilder) seg(s wordSeg) {
	if s.kind == segLiteral {
		b.lit.WriteString(s.text)
		return
	}
	b.flush()
	b.segs = append(b.segs, s)
}

// word finalizes the builder. All-literal content returns a segs==nil word.
func (b *segBuilder) word() compiledWord {
	if b.segs == nil {
		return compiledWord{lit: b.lit.String()}
	}
	b.flush()
	return compiledWord{segs: b.segs}
}
