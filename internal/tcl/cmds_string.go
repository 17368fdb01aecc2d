package tcl

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/pattern"
)

// GlobMatch is the glob matcher used by string match, case, switch -glob,
// and info filters. It shares the expect engine's matcher so the language
// and the dialogue engine agree on pattern semantics.
func GlobMatch(pat, s string) bool { return pattern.Match(pat, s) }

func regexpMatch(pat, s string) (bool, error) {
	re, err := pattern.CompileRegexp(pat)
	if err != nil {
		return false, err
	}
	return re.MatchString(s), nil
}

func registerStringCommands(i *Interp) {
	i.Register("string", cmdString)
	i.Register("format", cmdFormat)
	i.Register("scan", cmdScan)
	i.Register("regexp", cmdRegexp)
	i.Register("regsub", cmdRegsub)
}

func cmdString(i *Interp, args []string) Result {
	if r := arity(args, 2, -1, "option arg ?arg ...?"); r.Code != OK {
		return r
	}
	op := args[1]
	need := func(n int, usage string) Result {
		if len(args)-2 != n {
			return Errf(`wrong # args: should be "string %s %s"`, op, usage)
		}
		return Ok("")
	}
	switch op {
	case "length":
		if r := need(1, "string"); r.Code != OK {
			return r
		}
		return Ok(strconv.Itoa(len(args[2])))
	case "index":
		if r := need(2, "string charIndex"); r.Code != OK {
			return r
		}
		idx, err := strconv.Atoi(args[3])
		if err != nil {
			return Errf("expected integer but got %q", args[3])
		}
		s := args[2]
		if idx < 0 || idx >= len(s) {
			return Ok("")
		}
		return Ok(s[idx : idx+1])
	case "range":
		if r := need(3, "string first last"); r.Code != OK {
			return r
		}
		s := args[2]
		first, err := strconv.Atoi(args[3])
		if err != nil {
			return Errf("expected integer but got %q", args[3])
		}
		var last int
		if args[4] == "end" {
			last = len(s) - 1
		} else {
			last, err = strconv.Atoi(args[4])
			if err != nil {
				return Errf(`expected integer or "end" but got %q`, args[4])
			}
		}
		if first < 0 {
			first = 0
		}
		if last >= len(s) {
			last = len(s) - 1
		}
		if first > last {
			return Ok("")
		}
		return Ok(s[first : last+1])
	case "compare":
		if r := need(2, "string1 string2"); r.Code != OK {
			return r
		}
		return Ok(strconv.Itoa(strings.Compare(args[2], args[3])))
	case "equal":
		if r := need(2, "string1 string2"); r.Code != OK {
			return r
		}
		if args[2] == args[3] {
			return Ok("1")
		}
		return Ok("0")
	case "match":
		if r := need(2, "pattern string"); r.Code != OK {
			return r
		}
		if GlobMatch(args[2], args[3]) {
			return Ok("1")
		}
		return Ok("0")
	case "first":
		if r := need(2, "needle haystack"); r.Code != OK {
			return r
		}
		return Ok(strconv.Itoa(strings.Index(args[3], args[2])))
	case "last":
		if r := need(2, "needle haystack"); r.Code != OK {
			return r
		}
		return Ok(strconv.Itoa(strings.LastIndex(args[3], args[2])))
	case "tolower":
		if r := need(1, "string"); r.Code != OK {
			return r
		}
		return Ok(strings.ToLower(args[2]))
	case "toupper":
		if r := need(1, "string"); r.Code != OK {
			return r
		}
		return Ok(strings.ToUpper(args[2]))
	case "trim":
		return stringTrim(args, strings.Trim)
	case "trimleft":
		return stringTrim(args, strings.TrimLeft)
	case "trimright":
		return stringTrim(args, strings.TrimRight)
	case "repeat":
		if r := need(2, "string count"); r.Code != OK {
			return r
		}
		n, err := strconv.Atoi(args[3])
		if err != nil || n < 0 {
			return Errf("bad repeat count %q", args[3])
		}
		return Ok(strings.Repeat(args[2], n))
	case "reverse":
		if r := need(1, "string"); r.Code != OK {
			return r
		}
		b := []byte(args[2])
		for l, r := 0, len(b)-1; l < r; l, r = l+1, r-1 {
			b[l], b[r] = b[r], b[l]
		}
		return Ok(string(b))
	default:
		return Errf("bad option %q to string", op)
	}
}

func stringTrim(args []string, f func(string, string) string) Result {
	if len(args) < 3 || len(args) > 4 {
		return Errf(`wrong # args: should be "string %s string ?chars?"`, args[1])
	}
	cutset := " \t\n\r\v\f"
	if len(args) == 4 {
		cutset = args[3]
	}
	return Ok(f(args[2], cutset))
}

// cmdFormat implements format with the C-printf verb set Tcl supports:
// %d %i %u %o %x %X %c %s %f %e %E %g %G %% with width/precision/flags.
func cmdFormat(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "formatString ?arg ...?"); r.Code != OK {
		return r
	}
	spec := args[1]
	rest := args[2:]
	var sb strings.Builder
	argi := 0
	for k := 0; k < len(spec); k++ {
		c := spec[k]
		if c != '%' {
			sb.WriteByte(c)
			continue
		}
		start := k
		k++
		if k < len(spec) && spec[k] == '%' {
			sb.WriteByte('%')
			continue
		}
		// flags, width, precision
		for k < len(spec) && strings.IndexByte("-+ #0", spec[k]) >= 0 {
			k++
		}
		for k < len(spec) && spec[k] >= '0' && spec[k] <= '9' {
			k++
		}
		if k < len(spec) && spec[k] == '.' {
			k++
			for k < len(spec) && spec[k] >= '0' && spec[k] <= '9' {
				k++
			}
		}
		// length modifiers (l, h) are accepted and ignored
		for k < len(spec) && (spec[k] == 'l' || spec[k] == 'h') {
			k++
		}
		if k >= len(spec) {
			return Errf(`format string ended in middle of field specifier`)
		}
		verb := spec[k]
		if argi >= len(rest) {
			return Errf("not enough arguments for all format specifiers")
		}
		arg := rest[argi]
		argi++
		directive := strings.ReplaceAll(spec[start:k], "l", "")
		directive = strings.ReplaceAll(directive, "h", "")
		switch verb {
		case 'd', 'i':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&sb, directive+"d", n)
		case 'u':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&sb, directive+"d", uint64(n))
		case 'o':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&sb, directive+"o", n)
		case 'x', 'X':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", arg)
			}
			fmt.Fprintf(&sb, directive+string(verb), n)
		case 'c':
			n, err := strconv.ParseInt(strings.TrimSpace(arg), 0, 64)
			if err != nil {
				return Errf("expected integer but got %q", arg)
			}
			sb.WriteRune(rune(n))
		case 's':
			fmt.Fprintf(&sb, directive+"s", arg)
		case 'f', 'e', 'E', 'g', 'G':
			f, err := strconv.ParseFloat(strings.TrimSpace(arg), 64)
			if err != nil {
				return Errf("expected floating-point number but got %q", arg)
			}
			fmt.Fprintf(&sb, directive+string(verb), f)
		default:
			return Errf("bad field specifier %q", string(verb))
		}
	}
	return Ok(sb.String())
}

// cmdScan implements scan with %d, %f, %s, %c, %x, %o and literal matching.
// It returns the number of conversions performed, like Tcl.
func cmdScan(i *Interp, args []string) Result {
	if r := arity(args, 2, -1, "string formatString ?varName ...?"); r.Code != OK {
		return r
	}
	input := args[1]
	spec := args[2]
	vars := args[3:]
	si := 0
	converted := 0
	skipSpace := func() {
		for si < len(input) && (input[si] == ' ' || input[si] == '\t' || input[si] == '\n') {
			si++
		}
	}
	for k := 0; k < len(spec); k++ {
		c := spec[k]
		switch {
		case c == ' ' || c == '\t':
			skipSpace()
		case c == '%' && k+1 < len(spec):
			k++
			// optional width
			width := 0
			for k < len(spec) && spec[k] >= '0' && spec[k] <= '9' {
				width = width*10 + int(spec[k]-'0')
				k++
			}
			if k >= len(spec) {
				return Errf("format string ended in middle of field specifier")
			}
			verb := spec[k]
			if verb == '%' {
				if si < len(input) && input[si] == '%' {
					si++
				}
				continue
			}
			if converted >= len(vars) {
				return Errf("different numbers of variable names and field specifiers")
			}
			var value string
			switch verb {
			case 'd', 'x', 'o':
				skipSpace()
				start := si
				if si < len(input) && (input[si] == '-' || input[si] == '+') {
					si++
				}
				digits := "0123456789"
				if verb == 'x' {
					digits = "0123456789abcdefABCDEF"
				} else if verb == 'o' {
					digits = "01234567"
				}
				for si < len(input) && strings.IndexByte(digits, input[si]) >= 0 {
					si++
					if width > 0 && si-start >= width {
						break
					}
				}
				if si == start {
					goto done
				}
				text := input[start:si]
				base := 10
				if verb == 'x' {
					base = 16
				} else if verb == 'o' {
					base = 8
				}
				n, err := strconv.ParseInt(text, base, 64)
				if err != nil {
					goto done
				}
				value = strconv.FormatInt(n, 10)
			case 'f', 'e', 'g':
				skipSpace()
				start := si
				for si < len(input) && strings.IndexByte("+-0123456789.eE", input[si]) >= 0 {
					si++
				}
				if si == start {
					goto done
				}
				f, err := strconv.ParseFloat(input[start:si], 64)
				if err != nil {
					goto done
				}
				value = formatFloat(f)
			case 's':
				skipSpace()
				start := si
				for si < len(input) && input[si] != ' ' && input[si] != '\t' && input[si] != '\n' {
					si++
					if width > 0 && si-start >= width {
						break
					}
				}
				if si == start {
					goto done
				}
				value = input[start:si]
			case 'c':
				if si >= len(input) {
					goto done
				}
				value = strconv.Itoa(int(input[si]))
				si++
			default:
				return Errf("bad scan conversion character %q", string(verb))
			}
			if w := i.setVar(vars[converted], value); w.Code != OK {
				return w
			}
			converted++
		default:
			if si < len(input) && input[si] == c {
				si++
			} else {
				goto done
			}
		}
	}
done:
	return Ok(strconv.Itoa(converted))
}

// cmdRegexp: regexp ?-nocase? ?-indices? exp string ?matchVar? ?subVar ...?
func cmdRegexp(i *Interp, args []string) Result {
	a := args[1:]
	nocase := false
	indices := false
	for len(a) > 0 && strings.HasPrefix(a[0], "-") {
		switch a[0] {
		case "-nocase":
			nocase = true
		case "-indices":
			indices = true
		case "--":
			a = a[1:]
			goto parsed
		default:
			return Errf("bad switch %q", a[0])
		}
		a = a[1:]
	}
parsed:
	if len(a) < 2 {
		return Errf(`wrong # args: should be "regexp ?switches? exp string ?matchVar? ?subVar ...?"`)
	}
	pat := a[0]
	if nocase {
		pat = "(?i)" + pat
	}
	re, err := pattern.CompileRegexp(pat)
	if err != nil {
		return Errf("couldn't compile regular expression pattern: %v", err)
	}
	str := a[1]
	locs := re.FindStringSubmatchIndex(str)
	if locs == nil {
		return Ok("0")
	}
	for vi, name := range a[2:] {
		var val string
		if 2*vi+1 < len(locs) && locs[2*vi] >= 0 {
			if indices {
				val = fmt.Sprintf("%d %d", locs[2*vi], locs[2*vi+1]-1)
			} else {
				val = str[locs[2*vi]:locs[2*vi+1]]
			}
		}
		if w := i.setVar(name, val); w.Code != OK {
			return w
		}
	}
	return Ok("1")
}

// cmdRegsub: regsub ?-all? ?-nocase? exp string subSpec varName
func cmdRegsub(i *Interp, args []string) Result {
	a := args[1:]
	all := false
	nocase := false
	for len(a) > 0 && strings.HasPrefix(a[0], "-") {
		switch a[0] {
		case "-all":
			all = true
		case "-nocase":
			nocase = true
		case "--":
			a = a[1:]
			goto parsed
		default:
			return Errf("bad switch %q", a[0])
		}
		a = a[1:]
	}
parsed:
	if len(a) != 4 {
		return Errf(`wrong # args: should be "regsub ?switches? exp string subSpec varName"`)
	}
	pat := a[0]
	if nocase {
		pat = "(?i)" + pat
	}
	re, err := pattern.CompileRegexp(pat)
	if err != nil {
		return Errf("couldn't compile regular expression pattern: %v", err)
	}
	str, subSpec, varName := a[1], a[2], a[3]
	count := 0
	replace := func(m string) string {
		count++
		sub := re.FindStringSubmatch(m)
		var sb strings.Builder
		for k := 0; k < len(subSpec); k++ {
			c := subSpec[k]
			switch {
			case c == '&':
				sb.WriteString(m)
			case c == '\\' && k+1 < len(subSpec):
				k++
				d := subSpec[k]
				if d >= '0' && d <= '9' {
					gi := int(d - '0')
					if gi < len(sub) {
						sb.WriteString(sub[gi])
					}
				} else {
					sb.WriteByte(d)
				}
			default:
				sb.WriteByte(c)
			}
		}
		return sb.String()
	}
	var out string
	if all {
		out = re.ReplaceAllStringFunc(str, replace)
	} else {
		done := false
		out = re.ReplaceAllStringFunc(str, func(m string) string {
			if done {
				return m
			}
			done = true
			return replace(m)
		})
	}
	if w := i.setVar(varName, out); w.Code != OK {
		return w
	}
	return Ok(strconv.Itoa(count))
}
