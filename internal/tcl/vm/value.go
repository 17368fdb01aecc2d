// Package vm defines the register bytecode the Tcl interpreter's third
// eval mode executes: a dual string/native Value representation, the
// instruction set for compiled scripts and expressions (constants pool,
// interned variable slots, jump-threaded control flow, inline-cached
// command dispatch), and a disassembler for golden tests.
//
// The package is deliberately host-free: it knows nothing about the
// interpreter (frames, commands, hooks). Programs are pure data produced
// by the compiler in package tcl and executed by the interpreter loop
// there; everything here — value arithmetic, opcode layout, disassembly —
// is a pure function, which is what makes compile→disasm→recompile
// stability testable and keeps the classic evaluator the sole semantic
// referee.
package vm

import (
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Kind is a Value's native representation.
type Kind uint8

const (
	// KString is a plain string with no (known) numeric interpretation.
	KString Kind = iota
	// KInt is a native int64; the string rep is materialized on demand.
	KInt
	// KFloat is a native float64; the string rep is materialized on demand.
	KFloat
	// KList is a parsed list (see List), which carries its own string.
	KList
)

// Value is the dual-representation Tcl value: every value can render as a
// string (Tcl's observable universe), but values produced by arithmetic
// keep their native int64/float64 so downstream operations skip the
// parse → compute → format round-trip. A Value mirrors the classic
// evaluator's exprValue exactly: a KInt/KFloat value carries no original
// string (the classic operandValue discards it too — "0x10" reads as 16
// and compares as "16"), so rendering is always canonical. The native
// payload is one uint64 holding either the int64 or the float64 bits; a
// KInt value may additionally carry its canonical rendering so repeated
// Text calls skip the format (see IntStringValue). A KList value holds
// its List.
//
// A Value is four words, the largest struct Go keeps in registers
// instead of memory, and the executors copy Values on every instruction:
// a fifth word (a list pointer beside the string) made E22's eval loop
// about 40% and its expression about 30% slower on a 2-vCPU host. So one
// pointer word, ptr, holds the reference of every kind: with n, the data
// and length of a KString's text or a KInt's rendering; for a KList, the
// *List.
type Value struct {
	kind Kind
	bits uint64
	ptr  unsafe.Pointer
	n    int
}

func textValue(kind Kind, bits uint64, s string) Value {
	return Value{kind: kind, bits: bits, ptr: unsafe.Pointer(unsafe.StringData(s)), n: len(s)}
}

// str is the string held in ptr and n (never a KList's).
func (v Value) str() string { return unsafe.String((*byte)(v.ptr), v.n) }

// StringValue wraps a string with no numeric claim.
func StringValue(s string) Value { return textValue(KString, 0, s) }

// IntValue makes a native integer value.
func IntValue(i int64) Value { return Value{kind: KInt, bits: uint64(i)} }

// IntStringValue makes a native integer that already knows its canonical
// decimal rendering; s must equal strconv.FormatInt(i, 10).
func IntStringValue(i int64, s string) Value { return textValue(KInt, uint64(i), s) }

// ListValue makes a list value.
func ListValue(l *List) Value { return Value{kind: KList, ptr: unsafe.Pointer(l)} }

// ValueKey is a comparable identity for a Value: equal keys mean values
// that behave the same, so constant pools intern by it.
type ValueKey struct {
	kind Kind
	bits uint64
	s    string
	list *List
}

// Key returns v's identity.
func (v Value) Key() ValueKey {
	if v.kind == KList {
		return ValueKey{kind: KList, list: v.List()}
	}
	return ValueKey{kind: v.kind, bits: v.bits, s: v.str()}
}

// FloatValue makes a native float value.
func FloatValue(f float64) Value { return Value{kind: KFloat, bits: math.Float64bits(f)} }

// BoolValue is Tcl's boolean: the integer 1 or 0.
func BoolValue(b bool) Value {
	if b {
		return IntValue(1)
	}
	return IntValue(0)
}

// Kind reports the native representation.
func (v Value) Kind() Kind { return v.kind }

// Int returns the native int64 (meaningful only for KInt).
func (v Value) Int() int64 { return int64(v.bits) }

// Float returns the native float64 (meaningful only for KFloat).
func (v Value) Float() float64 { return math.Float64frombits(v.bits) }

// List returns the parsed list of a KList value, nil for any other kind.
func (v Value) List() *List {
	if v.kind != KList {
		return nil
	}
	return (*List)(v.ptr)
}

// Text renders the value as its Tcl string, materializing native numbers
// exactly the way the classic evaluator's exprValue.String does.
func (v Value) Text() string {
	switch v.kind {
	case KInt:
		if v.n != 0 {
			return v.str()
		}
		return strconv.FormatInt(int64(v.bits), 10)
	case KFloat:
		return FormatFloat(v.Float())
	case KList:
		return v.List().String()
	default:
		return v.str()
	}
}

// FormatFloat renders a float the way Tcl does: always distinguishable
// from an integer (a trailing ".0" if needed).
func FormatFloat(f float64) string {
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

// ParseNumber classifies a string as an integer or float literal, trying
// base-0 integers first exactly like the classic parseNumber.
func ParseNumber(s string) (Value, bool) {
	if s == "" {
		return Value{}, false
	}
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return IntValue(i), true
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return FloatValue(f), true
	}
	return Value{}, false
}

// ClassifyOperand is operandValue: a substitution result whose (untrimmed)
// text parses as a number becomes that number, losing the original
// spelling; anything else stays a string.
func ClassifyOperand(s string) Value {
	if n, ok := ParseNumber(s); ok {
		return n
	}
	return StringValue(s)
}

// Numeric coerces v to a number if possible (trimming, as the classic
// exprValue.numeric does for strings).
func (v Value) Numeric() (Value, bool) {
	switch v.kind {
	case KInt, KFloat:
		return v, true
	default:
		return ParseNumber(strings.TrimSpace(v.str()))
	}
}

func (v Value) asFloat() float64 {
	if v.kind == KFloat {
		return v.Float()
	}
	return float64(int64(v.bits))
}

// Truth interprets v as a boolean condition; the second return is the
// error message ("" on success), preformatted to match the classic
// evaluator's exprValue.truth.
func (v Value) Truth() (bool, string) {
	if n, ok := v.Numeric(); ok {
		if n.kind == KInt {
			return n.bits != 0, ""
		}
		return n.Float() != 0, ""
	}
	s := v.str()
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "true", "yes", "on":
		return true, ""
	case "false", "no", "off":
		return false, ""
	}
	return false, "expected boolean value but got " + strconv.Quote(s)
}
