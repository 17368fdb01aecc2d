package tcl

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// registerCoreCommands installs variables, control flow, procedures,
// expression evaluation, and error handling.
func registerCoreCommands(i *Interp) {
	i.Register("set", cmdSet)
	i.Register("unset", cmdUnset)
	i.Register("incr", cmdIncr)
	i.Register("append", cmdAppend)
	i.Register("expr", cmdExpr)
	i.Register("if", cmdIf)
	i.Register("while", cmdWhile)
	i.Register("for", cmdFor)
	i.Register("foreach", cmdForeach)
	i.Register("break", cmdBreak)
	i.Register("continue", cmdContinue)
	i.Register("return", cmdReturn)
	i.Register("proc", cmdProc)
	i.Register("rename", cmdRename)
	i.Register("catch", cmdCatch)
	i.Register("error", cmdError)
	i.Register("eval", cmdEval)
	i.Register("uplevel", cmdUplevel)
	i.Register("upvar", cmdUpvar)
	i.Register("global", cmdGlobal)
	i.Register("switch", cmdSwitch)
	i.Register("case", cmdCase)
	i.Register("info", cmdInfo)
	i.Register("array", cmdArray)
	i.Register("subst", cmdSubst)
}

func arity(args []string, min, max int, usage string) Result {
	n := len(args) - 1
	if n < min || (max >= 0 && n > max) {
		return Errf(`wrong # args: should be "%s %s"`, args[0], usage)
	}
	return Ok("")
}

func cmdSet(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "varName ?newValue?"); r.Code != OK {
		return r
	}
	if len(args) == 2 {
		v, ok := i.GetVar(args[1])
		if !ok {
			return Errf("can't read %q: no such variable", args[1])
		}
		return Ok(v)
	}
	return i.setVar(args[1], args[2])
}

func cmdUnset(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "varName ?varName ...?"); r.Code != OK {
		return r
	}
	for _, name := range args[1:] {
		if !i.UnsetVar(name) {
			return Errf("can't unset %q: no such variable", name)
		}
	}
	return Ok("")
}

func cmdIncr(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "varName ?increment?"); r.Code != OK {
		return r
	}
	cur, ok := i.GetVar(args[1])
	if !ok {
		return Errf("can't read %q: no such variable", args[1])
	}
	n, err := strconv.ParseInt(strings.TrimSpace(cur), 0, 64)
	if err != nil {
		return Errf("expected integer but got %q", cur)
	}
	delta := int64(1)
	if len(args) == 3 {
		delta, err = strconv.ParseInt(strings.TrimSpace(args[2]), 0, 64)
		if err != nil {
			return Errf("expected integer but got %q", args[2])
		}
	}
	return Ok(i.SetVar(args[1], strconv.FormatInt(n+delta, 10)))
}

func cmdAppend(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "varName ?value value ...?"); r.Code != OK {
		return r
	}
	cur, _ := i.GetVar(args[1])
	var sb strings.Builder
	sb.WriteString(cur)
	for _, v := range args[2:] {
		sb.WriteString(v)
	}
	return i.setVar(args[1], sb.String())
}

func cmdExpr(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "arg ?arg ...?"); r.Code != OK {
		return r
	}
	text := strings.Join(args[1:], " ")
	s, res := i.ExprString(text)
	if res.Code != OK {
		return res
	}
	return Ok(s)
}

// cmdIf implements if with optional then/else/elseif noise words, per Tcl.
func cmdIf(i *Interp, args []string) Result {
	a := args[1:]
	for {
		if len(a) == 0 {
			return Errf(`wrong # args: no expression after "if" argument`)
		}
		cond := a[0]
		a = a[1:]
		if len(a) > 0 && a[0] == "then" {
			a = a[1:]
		}
		if len(a) == 0 {
			return Errf(`wrong # args: no script following "if" condition`)
		}
		body := a[0]
		a = a[1:]
		b, res := i.ExprBool(cond)
		if res.Code != OK {
			return res
		}
		if b {
			return i.EvalScript(body)
		}
		if len(a) == 0 {
			return Ok("")
		}
		switch a[0] {
		case "elseif":
			a = a[1:]
			continue
		case "else":
			a = a[1:]
			if len(a) != 1 {
				return Errf(`wrong # args: extra arguments after "else" clause`)
			}
			return i.EvalScript(a[0])
		default:
			if len(a) == 1 {
				// Bare else body, old-Tcl style: if cond body elsebody.
				return i.EvalScript(a[0])
			}
			return Errf(`invalid "if" argument %q`, a[0])
		}
	}
}

func cmdWhile(i *Interp, args []string) Result {
	if r := arity(args, 2, 2, "test command"); r.Code != OK {
		return r
	}
	for {
		b, res := i.ExprBool(args[1])
		if res.Code != OK {
			return res
		}
		if !b {
			return Ok("")
		}
		res2 := i.EvalScript(args[2])
		switch res2.Code {
		case OK, Continue:
		case Break:
			return Ok("")
		default:
			return res2
		}
	}
}

func cmdFor(i *Interp, args []string) Result {
	if r := arity(args, 4, 4, "start test next command"); r.Code != OK {
		return r
	}
	if res := i.EvalScript(args[1]); res.Code != OK {
		return res
	}
	for {
		// An empty test is true, matching `for {} {1} {} {...}` and the
		// paper's `for {} 1 {} {...}` spelling.
		if strings.TrimSpace(args[2]) != "" {
			b, res := i.ExprBool(args[2])
			if res.Code != OK {
				return res
			}
			if !b {
				return Ok("")
			}
		}
		res := i.EvalScript(args[4])
		switch res.Code {
		case OK, Continue:
		case Break:
			return Ok("")
		default:
			return res
		}
		if res := i.EvalScript(args[3]); res.Code != OK {
			return res
		}
	}
}

func cmdForeach(i *Interp, args []string) Result {
	if r := arity(args, 3, 3, "varName list command"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[2])
	if err != nil {
		return Errf("%v", err)
	}
	for _, item := range items {
		if res := i.setVar(args[1], item); res.Code != OK {
			return res
		}
		res := i.EvalScript(args[3])
		switch res.Code {
		case OK, Continue:
		case Break:
			return Ok("")
		default:
			return res
		}
	}
	return Ok("")
}

func cmdBreak(i *Interp, args []string) Result {
	if r := arity(args, 0, 0, ""); r.Code != OK {
		return r
	}
	return Result{Break, ""}
}

func cmdContinue(i *Interp, args []string) Result {
	if r := arity(args, 0, 0, ""); r.Code != OK {
		return r
	}
	return Result{Continue, ""}
}

func cmdReturn(i *Interp, args []string) Result {
	if r := arity(args, 0, 1, "?value?"); r.Code != OK {
		return r
	}
	val := ""
	if len(args) == 2 {
		val = args[1]
	}
	return Result{Return, val}
}

func cmdProc(i *Interp, args []string) Result {
	if r := arity(args, 3, 3, "name args body"); r.Code != OK {
		return r
	}
	formals, err := ParseList(args[2])
	if err != nil {
		return Errf("%v", err)
	}
	p := &Proc{Body: args[3]}
	for _, f := range formals {
		parts, err := ParseList(f)
		if err != nil || len(parts) == 0 || len(parts) > 2 {
			return Errf("procedure %q has argument with bad format: %q", args[1], f)
		}
		arg := ProcArg{Name: parts[0]}
		if len(parts) == 2 {
			arg.Default = parts[1]
			arg.HasDefault = true
		}
		p.Args = append(p.Args, arg)
	}
	p.layout = newProcLayout(p.Args)
	i.procs[args[1]] = p
	i.cmdEpoch++
	return Ok("")
}

func cmdRename(i *Interp, args []string) Result {
	if r := arity(args, 2, 2, "oldName newName"); r.Code != OK {
		return r
	}
	old, nw := args[1], args[2]
	if p, ok := i.procs[old]; ok {
		delete(i.procs, old)
		if nw != "" {
			i.procs[nw] = p
		}
		i.cmdEpoch++
		return Ok("")
	}
	if c, ok := i.commands[old]; ok {
		delete(i.commands, old)
		if nw != "" {
			i.commands[nw] = c
		}
		i.cmdEpoch++
		return Ok("")
	}
	return Errf("can't rename %q: command doesn't exist", old)
}

func cmdCatch(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "command ?varName?"); r.Code != OK {
		return r
	}
	res := i.EvalScript(args[1])
	if len(args) == 3 {
		if w := i.setVar(args[2], res.Value); w.Code != OK {
			return Errf("couldn't save command result in variable")
		}
	}
	return Ok(strconv.Itoa(int(res.Code)))
}

func cmdError(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "message ?errorInfo?"); r.Code != OK {
		return r
	}
	if len(args) == 3 {
		i.ErrorInfo = args[2]
	}
	return Result{Error, args[1]}
}

func cmdEval(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "arg ?arg ...?"); r.Code != OK {
		return r
	}
	return i.EvalScript(strings.Join(args[1:], " "))
}

func cmdUplevel(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "?level? command ?command ...?"); r.Code != OK {
		return r
	}
	rest := args[1:]
	target := len(i.frames) - 2 // default: one level up
	if lvl, ok := parseLevel(rest[0], len(i.frames)-1); ok && len(rest) > 1 {
		target = lvl
		rest = rest[1:]
	}
	if target < 0 || target >= len(i.frames) {
		return Errf("bad level %q", args[1])
	}
	saved := i.frames
	// Capped, so that a proc the script calls pushes its frame onto a
	// new array instead of over the frames uplevel hides.
	i.frames = i.frames[: target+1 : target+1]
	res := i.EvalScript(strings.Join(rest, " "))
	i.frames = saved
	return res
}

// parseLevel parses "#n" (absolute) or "n" (relative) level specifiers.
func parseLevel(s string, cur int) (int, bool) {
	if strings.HasPrefix(s, "#") {
		n, err := strconv.Atoi(s[1:])
		if err != nil {
			return 0, false
		}
		return n, true
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return cur - n, true
}

func cmdUpvar(i *Interp, args []string) Result {
	if r := arity(args, 2, -1, "?level? otherVar localVar ?otherVar localVar ...?"); r.Code != OK {
		return r
	}
	rest := args[1:]
	target := len(i.frames) - 2
	if lvl, ok := parseLevel(rest[0], len(i.frames)-1); ok && len(rest)%2 == 1 {
		target = lvl
		rest = rest[1:]
	}
	if target < 0 || target >= len(i.frames) {
		return Errf("bad level for upvar")
	}
	if len(rest)%2 != 0 {
		return Errf(`wrong # args: should be "upvar ?level? otherVar localVar ?otherVar localVar ...?"`)
	}
	for k := 0; k < len(rest); k += 2 {
		other, local := rest[k], rest[k+1]
		i.linkVar(i.current(), local, i.bindVar(i.frames[target], other))
	}
	return Ok("")
}

func cmdGlobal(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "varName ?varName ...?"); r.Code != OK {
		return r
	}
	if i.Level() == 0 {
		return Ok("") // already global
	}
	gf, f := i.frames[0], i.current()
	for _, name := range args[1:] {
		i.linkVar(f, name, i.bindVar(gf, name))
	}
	return Ok("")
}

// cmdSwitch implements modern switch: switch ?-exact|-glob|-regexp? ?--?
// string pattern body ?pattern body ...? or the single-list form.
func cmdSwitch(i *Interp, args []string) Result {
	a := args[1:]
	mode := "-exact"
	for len(a) > 0 && strings.HasPrefix(a[0], "-") {
		switch a[0] {
		case "-exact", "-glob", "-regexp":
			mode = a[0]
			a = a[1:]
		case "--":
			a = a[1:]
			goto parsed
		default:
			return Errf("bad option %q: should be -exact, -glob, -regexp, or --", a[0])
		}
	}
parsed:
	if len(a) < 2 {
		return Errf(`wrong # args: should be "switch ?options? string pattern body ... ?default body?"`)
	}
	str := a[0]
	pairs := a[1:]
	if len(pairs) == 1 {
		items, err := ParseList(pairs[0])
		if err != nil {
			return Errf("%v", err)
		}
		pairs = items
	}
	if len(pairs)%2 != 0 {
		return Errf("extra switch pattern with no body")
	}
	for k := 0; k < len(pairs); k += 2 {
		pat, body := pairs[k], pairs[k+1]
		matched := pat == "default" && k == len(pairs)-2
		if !matched {
			switch mode {
			case "-exact":
				matched = pat == str
			case "-glob":
				matched = GlobMatch(pat, str)
			case "-regexp":
				m, err := regexpMatch(pat, str)
				if err != nil {
					return Errf("%v", err)
				}
				matched = m
			}
		}
		if matched {
			// "-" chains to the next body.
			for body == "-" {
				k += 2
				if k >= len(pairs) {
					return Errf(`no body specified for pattern %q`, pat)
				}
				body = pairs[k+1]
			}
			return i.EvalScript(body)
		}
	}
	return Ok("")
}

// cmdCase implements the old Tcl case command the paper mentions:
//
//	case string ?in? patList body ?patList body ...?
//
// Each patList is a list of glob patterns; "default" matches anything.
func cmdCase(i *Interp, args []string) Result {
	a := args[1:]
	if len(a) == 0 {
		return Errf(`wrong # args: should be "case string ?in? patList body ...?"`)
	}
	str := a[0]
	a = a[1:]
	if len(a) > 0 && a[0] == "in" {
		a = a[1:]
	}
	if len(a) == 1 {
		items, err := ParseList(a[0])
		if err != nil {
			return Errf("%v", err)
		}
		a = items
	}
	if len(a)%2 != 0 {
		return Errf("extra case pattern with no body")
	}
	var defaultBody string
	hasDefault := false
	for k := 0; k < len(a); k += 2 {
		patList, body := a[k], a[k+1]
		if patList == "default" {
			defaultBody, hasDefault = body, true
			continue
		}
		pats, err := ParseList(patList)
		if err != nil {
			return Errf("%v", err)
		}
		for _, pat := range pats {
			if GlobMatch(pat, str) {
				return i.EvalScript(body)
			}
		}
	}
	if hasDefault {
		return i.EvalScript(defaultBody)
	}
	return Ok("")
}

func cmdInfo(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "option ?arg ...?"); r.Code != OK {
		return r
	}
	switch args[1] {
	case "exists":
		if len(args) != 3 {
			return Errf(`wrong # args: should be "info exists varName"`)
		}
		if _, ok := i.GetVar(args[2]); ok {
			return Ok("1")
		}
		// An array name with no parens still "exists".
		if v, ok := i.lookupVar(args[2]); ok && v.isArr {
			return Ok("1")
		}
		return Ok("0")
	case "commands":
		names := i.CommandNames()
		if len(args) == 3 {
			names = filterGlob(names, args[2])
		}
		return Ok(FormList(names))
	case "procs":
		names := i.ProcNames()
		if len(args) == 3 {
			names = filterGlob(names, args[2])
		}
		return Ok(FormList(names))
	case "vars", "locals":
		names := i.current().names()
		if len(args) == 3 {
			names = filterGlob(names, args[2])
		}
		return Ok(FormList(names))
	case "globals":
		names := i.frames[0].names()
		if len(args) == 3 {
			names = filterGlob(names, args[2])
		}
		return Ok(FormList(names))
	case "body":
		if len(args) != 3 {
			return Errf(`wrong # args: should be "info body procName"`)
		}
		p, ok := i.procs[args[2]]
		if !ok {
			return Errf("%q isn't a procedure", args[2])
		}
		return Ok(p.Body)
	case "args":
		if len(args) != 3 {
			return Errf(`wrong # args: should be "info args procName"`)
		}
		p, ok := i.procs[args[2]]
		if !ok {
			return Errf("%q isn't a procedure", args[2])
		}
		names := make([]string, len(p.Args))
		for k, a := range p.Args {
			names[k] = a.Name
		}
		return Ok(FormList(names))
	case "level":
		if len(args) == 2 {
			return Ok(strconv.Itoa(i.Level()))
		}
		return Errf("info level with argument not supported")
	case "tclversion":
		return Ok("6.0") // the era this dialect reproduces
	default:
		return Errf("bad option %q to info", args[1])
	}
}

func filterGlob(names []string, pat string) []string {
	var out []string
	for _, n := range names {
		if GlobMatch(pat, n) {
			out = append(out, n)
		}
	}
	return out
}

func cmdArray(i *Interp, args []string) Result {
	if r := arity(args, 2, -1, "option arrayName ?arg ...?"); r.Code != OK {
		return r
	}
	v, exists := i.lookupVar(args[2])
	isArr := exists && v.isArr
	switch args[1] {
	case "exists":
		if isArr {
			return Ok("1")
		}
		return Ok("0")
	case "size":
		if !isArr {
			return Ok("0")
		}
		return Ok(strconv.Itoa(len(v.arr)))
	case "names":
		if !isArr {
			return Ok("")
		}
		var names []string
		for n := range v.arr {
			names = append(names, n)
		}
		sort.Strings(names)
		if len(args) == 4 {
			names = filterGlob(names, args[3])
		}
		return Ok(FormList(names))
	case "get":
		if !isArr {
			return Ok("")
		}
		var names []string
		for n := range v.arr {
			names = append(names, n)
		}
		sort.Strings(names)
		var out []string
		for _, n := range names {
			out = append(out, n, v.arr[n])
		}
		return Ok(FormList(out))
	case "set":
		if len(args) != 4 {
			return Errf(`wrong # args: should be "array set arrayName list"`)
		}
		items, err := ParseList(args[3])
		if err != nil {
			return Errf("%v", err)
		}
		if len(items)%2 != 0 {
			return Errf("list must have an even number of elements")
		}
		for k := 0; k < len(items); k += 2 {
			if res := i.setVar(fmt.Sprintf("%s(%s)", args[2], items[k]), items[k+1]); res.Code != OK {
				return res
			}
		}
		return Ok("")
	default:
		return Errf("bad option %q to array", args[1])
	}
}

func cmdSubst(i *Interp, args []string) Result {
	if r := arity(args, 1, 1, "string"); r.Code != OK {
		return r
	}
	out, err := i.Subst(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	return Ok(out)
}
