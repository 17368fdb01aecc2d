package vm

import "strings"

// List is a parsed Tcl list. A List is immutable once built: variables
// and registers share List pointers (a foreach may still be walking the
// form a later write replaced, and `set b $a` hands a's form to b), so a
// write that changes a list builds a new one instead. Its string is the
// one it was parsed from or, for a list built from its items, the
// canonical rendering made when something first reads it; like the
// interpreter that owns it, a List is for one goroutine.
type List struct {
	Items    []string
	text     string
	rendered bool
}

// ParsedList returns the list form of text, which parsed to items.
func ParsedList(items []string, text string) *List {
	return &List{Items: items, text: text, rendered: true}
}

// String returns the list's string.
func (l *List) String() string {
	if !l.rendered {
		l.text, l.rendered = FormList(l.Items), true
	}
	return l.text
}

// FormList joins elements into a canonical Tcl list string, quoting each
// element as needed so that parsing the result recovers the originals
// exactly (Tcl_Merge in the C implementation).
func FormList(elems []string) string {
	var sb strings.Builder
	for i, e := range elems {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(QuoteElement(e))
	}
	return sb.String()
}

// QuoteElement renders one string as a single Tcl list element.
func QuoteElement(e string) string {
	if e == "" {
		return "{}"
	}
	if !needsQuoting(e) {
		return e
	}
	if bracesBalanced(e) && !strings.HasSuffix(e, "\\") {
		return "{" + e + "}"
	}
	// Fall back to backslash quoting.
	var sb strings.Builder
	for i := 0; i < len(e); i++ {
		c := e[i]
		switch c {
		case ' ', '\t', '"', '\\', '{', '}', '[', ']', '$', ';':
			sb.WriteByte('\\')
			sb.WriteByte(c)
		case '\n':
			sb.WriteString(`\n`)
		case '\r':
			sb.WriteString(`\r`)
		case '\f':
			sb.WriteString(`\f`)
		case '\v':
			sb.WriteString(`\v`)
		default:
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func needsQuoting(e string) bool {
	for i := 0; i < len(e); i++ {
		switch e[i] {
		case ' ', '\t', '\n', '\r', '\v', '\f', '"', '\\', '{', '}', '[', ']', '$', ';':
			return true
		}
	}
	return false
}

func bracesBalanced(e string) bool {
	depth := 0
	for i := 0; i < len(e); i++ {
		switch e[i] {
		case '\\':
			i++
		case '{':
			depth++
		case '}':
			depth--
			if depth < 0 {
				return false
			}
		}
	}
	return depth == 0
}
