package tcl

import (
	"strings"

	"repro/internal/tcl/vm"
)

// Tcl lists are strings with shell-like element quoting: elements are
// separated by whitespace, braces group (and nest), double quotes group,
// and backslashes escape. ParseList and FormList are the round-trip pair
// (Tcl_SplitList / Tcl_Merge in the C implementation).

// ParseList splits a Tcl list string into its elements. An element that
// needs no backslash substitution is a substring of s, so a parse costs
// one slice, not one string per element.
func ParseList(s string) ([]string, error) {
	n := len(s)
	words := 0
	for i := 0; i < n; i++ {
		if !isListSpace(s[i]) && (i == 0 || isListSpace(s[i-1])) {
			words++
		}
	}
	if words == 0 {
		return nil, nil
	}
	// Every element starts a whitespace-separated run, so the runs bound
	// the element count.
	elems := make([]string, 0, words)
	i := 0
	for {
		for i < n && isListSpace(s[i]) {
			i++
		}
		if i >= n {
			return elems, nil
		}
		switch s[i] {
		case '{':
			// Braces keep their content verbatim, backslashes included.
			depth := 1
			j := i + 1
			for j < n && depth > 0 {
				switch s[j] {
				case '\\':
					if j+1 >= n {
						return nil, &TclError{Message: "unmatched open brace in list"}
					}
					j++
				case '{':
					depth++
				case '}':
					depth--
				}
				j++
			}
			if depth != 0 {
				return nil, &TclError{Message: "unmatched open brace in list"}
			}
			if j < n && !isListSpace(s[j]) {
				return nil, &TclError{Message: "list element in braces followed by extra characters"}
			}
			elems = append(elems, s[i+1:j-1])
			i = j
		case '"':
			j := i + 1
			for j < n && s[j] != '"' && s[j] != '\\' {
				j++
			}
			var elem string
			if j < n && s[j] == '"' {
				elem = s[i+1 : j]
				j++
			} else {
				var sb strings.Builder
				sb.WriteString(s[i+1 : j])
				closed := false
				for j < n && !closed {
					switch s[j] {
					case '\\':
						if j+1 < n {
							rep, k := backslashSubst(s[j:])
							sb.WriteString(rep)
							j += k
							continue
						}
						sb.WriteByte('\\')
					case '"':
						closed = true
					default:
						sb.WriteByte(s[j])
					}
					j++
				}
				if !closed {
					return nil, &TclError{Message: "unmatched open quote in list"}
				}
				elem = sb.String()
			}
			if j < n && !isListSpace(s[j]) {
				return nil, &TclError{Message: "list element in quotes followed by extra characters"}
			}
			elems = append(elems, elem)
			i = j
		default:
			j := i
			for j < n && !isListSpace(s[j]) && s[j] != '\\' {
				j++
			}
			if j >= n || isListSpace(s[j]) {
				elems = append(elems, s[i:j])
				i = j
				continue
			}
			var sb strings.Builder
			sb.WriteString(s[i:j])
			for j < n && !isListSpace(s[j]) {
				if s[j] == '\\' && j+1 < n {
					rep, k := backslashSubst(s[j:])
					sb.WriteString(rep)
					j += k
					continue
				}
				sb.WriteByte(s[j])
				j++
			}
			elems = append(elems, sb.String())
			i = j
		}
	}
}

func isListSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'
}

// FormList joins elements into a canonical Tcl list string, quoting each
// element as needed so ParseList recovers the originals exactly.
func FormList(elems []string) string { return vm.FormList(elems) }

// QuoteElement renders one string as a single Tcl list element.
func QuoteElement(e string) string { return vm.QuoteElement(e) }
