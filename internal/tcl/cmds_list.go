package tcl

import (
	"sort"
	"strconv"
	"strings"
)

func registerListCommands(i *Interp) {
	i.Register("list", cmdList)
	i.Register("lindex", cmdLindex)
	i.Register("llength", cmdLlength)
	i.Register("lappend", cmdLappend)
	i.Register("linsert", cmdLinsert)
	i.Register("lrange", cmdLrange)
	i.Register("lreplace", cmdLreplace)
	i.Register("lsearch", cmdLsearch)
	i.Register("lsort", cmdLsort)
	i.Register("concat", cmdConcat)
	i.Register("join", cmdJoin)
	i.Register("split", cmdSplit)
}

// listIndex parses an index that may be "end" or "end-N".
func listIndex(s string, length int) (int, Result) {
	if s == "end" {
		return length - 1, Ok("")
	}
	if strings.HasPrefix(s, "end-") {
		n, err := strconv.Atoi(s[4:])
		if err != nil {
			return 0, Errf("bad index %q", s)
		}
		return length - 1 - n, Ok("")
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, Errf("bad index %q: must be integer or end?-integer?", s)
	}
	return n, Ok("")
}

func cmdList(i *Interp, args []string) Result {
	return Ok(FormList(args[1:]))
}

func cmdLindex(i *Interp, args []string) Result {
	if r := arity(args, 2, 2, "list index"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	return lindexOf(items, args[2])
}

// lindexOf is lindex over a parsed list.
func lindexOf(items []string, index string) Result {
	idx, res := listIndex(index, len(items))
	if res.Code != OK {
		return res
	}
	if idx < 0 || idx >= len(items) {
		return Ok("")
	}
	return Ok(items[idx])
}

func cmdLlength(i *Interp, args []string) Result {
	if r := arity(args, 1, 1, "list"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	return Ok(strconv.Itoa(len(items)))
}

func cmdLappend(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "varName ?value value ...?"); r.Code != OK {
		return r
	}
	cur, _ := i.GetVar(args[1])
	var sb strings.Builder
	sb.WriteString(cur)
	for _, v := range args[2:] {
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(QuoteElement(v))
	}
	return i.setVar(args[1], sb.String())
}

func cmdLinsert(i *Interp, args []string) Result {
	if r := arity(args, 3, -1, "list index element ?element ...?"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	idx, res := listIndex(args[2], len(items))
	if res.Code != OK {
		return res
	}
	if idx < 0 {
		idx = 0
	}
	if idx > len(items) {
		idx = len(items)
	}
	out := make([]string, 0, len(items)+len(args)-3)
	out = append(out, items[:idx]...)
	out = append(out, args[3:]...)
	out = append(out, items[idx:]...)
	return Ok(FormList(out))
}

func cmdLrange(i *Interp, args []string) Result {
	if r := arity(args, 3, 3, "list first last"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	first, res := listIndex(args[2], len(items))
	if res.Code != OK {
		return res
	}
	last, res := listIndex(args[3], len(items))
	if res.Code != OK {
		return res
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	if first > last {
		return Ok("")
	}
	return Ok(FormList(items[first : last+1]))
}

func cmdLreplace(i *Interp, args []string) Result {
	if r := arity(args, 3, -1, "list first last ?element ...?"); r.Code != OK {
		return r
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	first, res := listIndex(args[2], len(items))
	if res.Code != OK {
		return res
	}
	last, res := listIndex(args[3], len(items))
	if res.Code != OK {
		return res
	}
	if first < 0 {
		first = 0
	}
	if last >= len(items) {
		last = len(items) - 1
	}
	out := make([]string, 0, len(items))
	out = append(out, items[:first]...)
	out = append(out, args[4:]...)
	if last+1 < len(items) && last >= first-1 {
		out = append(out, items[last+1:]...)
	} else if last < first {
		out = append(out, items[first:]...)
	}
	return Ok(FormList(out))
}

func cmdLsearch(i *Interp, args []string) Result {
	a := args[1:]
	mode := "-glob"
	if len(a) == 3 {
		switch a[0] {
		case "-exact", "-glob", "-regexp":
			mode = a[0]
			a = a[1:]
		default:
			return Errf("bad search mode %q", a[0])
		}
	}
	if len(a) != 2 {
		return Errf(`wrong # args: should be "lsearch ?mode? list pattern"`)
	}
	items, err := ParseList(a[0])
	if err != nil {
		return Errf("%v", err)
	}
	for idx, item := range items {
		var m bool
		switch mode {
		case "-exact":
			m = item == a[1]
		case "-glob":
			m = GlobMatch(a[1], item)
		case "-regexp":
			var err error
			m, err = regexpMatch(a[1], item)
			if err != nil {
				return Errf("%v", err)
			}
		}
		if m {
			return Ok(strconv.Itoa(idx))
		}
	}
	return Ok("-1")
}

func cmdLsort(i *Interp, args []string) Result {
	a := args[1:]
	mode := "-ascii"
	decreasing := false
	for len(a) > 1 {
		switch a[0] {
		case "-ascii", "-integer", "-real":
			mode = a[0]
		case "-increasing":
			decreasing = false
		case "-decreasing":
			decreasing = true
		default:
			return Errf("bad option %q to lsort", a[0])
		}
		a = a[1:]
	}
	if len(a) != 1 {
		return Errf(`wrong # args: should be "lsort ?options? list"`)
	}
	items, err := ParseList(a[0])
	if err != nil {
		return Errf("%v", err)
	}
	var sortErr Result = Ok("")
	less := func(x, y string) bool { return x < y }
	switch mode {
	case "-integer":
		less = func(x, y string) bool {
			xi, err1 := strconv.ParseInt(strings.TrimSpace(x), 0, 64)
			yi, err2 := strconv.ParseInt(strings.TrimSpace(y), 0, 64)
			if err1 != nil || err2 != nil {
				sortErr = Errf("expected integer in lsort -integer")
			}
			return xi < yi
		}
	case "-real":
		less = func(x, y string) bool {
			xf, err1 := strconv.ParseFloat(strings.TrimSpace(x), 64)
			yf, err2 := strconv.ParseFloat(strings.TrimSpace(y), 64)
			if err1 != nil || err2 != nil {
				sortErr = Errf("expected real in lsort -real")
			}
			return xf < yf
		}
	}
	sort.SliceStable(items, func(x, y int) bool {
		if decreasing {
			return less(items[y], items[x])
		}
		return less(items[x], items[y])
	})
	if sortErr.Code != OK {
		return sortErr
	}
	return Ok(FormList(items))
}

func cmdConcat(i *Interp, args []string) Result {
	var parts []string
	for _, a := range args[1:] {
		t := strings.TrimSpace(a)
		if t != "" {
			parts = append(parts, t)
		}
	}
	return Ok(strings.Join(parts, " "))
}

func cmdJoin(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "list ?joinString?"); r.Code != OK {
		return r
	}
	sep := " "
	if len(args) == 3 {
		sep = args[2]
	}
	items, err := ParseList(args[1])
	if err != nil {
		return Errf("%v", err)
	}
	return Ok(strings.Join(items, sep))
}

// defaultSplitChars separates split's fields when no splitChars is given.
const defaultSplitChars = " \t\n\r"

func cmdSplit(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "string ?splitChars?"); r.Code != OK {
		return r
	}
	chars := defaultSplitChars
	if len(args) == 3 {
		chars = args[2]
	}
	return Ok(FormList(splitString(args[1], chars)))
}

// splitString is split's field list: s cut at every byte in chars, or
// into single bytes when chars is empty. Fields are substrings of s.
func splitString(s, chars string) []string {
	if chars == "" {
		out := make([]string, len(s))
		for k := 0; k < len(s); k++ {
			out[k] = s[k : k+1]
		}
		return out
	}
	var out []string
	start := 0
	for k := 0; k < len(s); k++ {
		if strings.IndexByte(chars, s[k]) >= 0 {
			out = append(out, s[start:k])
			start = k + 1
		}
	}
	return append(out, s[start:])
}
