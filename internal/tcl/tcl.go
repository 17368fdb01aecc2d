// Package tcl implements an interpreter for the Tool Command Language in the
// dialect the 1990 expect paper embeds: the classic string-based Tcl core
// (Ousterhout, USENIX Winter 1990) with control flow, procedures, expression
// evaluation, string and list manipulation, and execution of external
// programs. Everything is a string; commands are the unit of execution.
//
// The interpreter is deliberately close in spirit to Tcl 2.x/6.x: scripts are
// parsed as they are evaluated, substitution follows the classic brace /
// quote / bracket / dollar rules, and non-local control flow (return, break,
// continue, error) propagates as completion codes. The 1990-era command
// aliases used by the paper's scripts (index, length, range, print, case) are
// registered alongside the canonical modern names.
package tcl

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/lru"
	"repro/internal/tcl/vm"
)

// Code is a Tcl completion code. Every command evaluation completes with one
// of these; they are what make constructs such as the paper's
//
//	expect {*welcome*} break {*failed*} abort
//
// able to terminate an enclosing loop from inside an action argument.
type Code int

// Completion codes, numerically identical to real Tcl's TCL_OK..TCL_CONTINUE.
const (
	OK Code = iota
	Error
	Return
	Break
	Continue
)

func (c Code) String() string {
	switch c {
	case OK:
		return "ok"
	case Error:
		return "error"
	case Return:
		return "return"
	case Break:
		return "break"
	case Continue:
		return "continue"
	default:
		return fmt.Sprintf("code-%d", int(c))
	}
}

// Result is the outcome of evaluating a script or command: a completion code
// plus the result string (the value on OK/Return, the message on Error).
type Result struct {
	Code  Code
	Value string
}

// Ok returns a successful Result carrying value.
func Ok(value string) Result { return Result{OK, value} }

// Errf formats an error Result.
func Errf(format string, args ...any) Result {
	return Result{Error, fmt.Sprintf(format, args...)}
}

// Command is the implementation of a Tcl command. args[0] is the command
// name as invoked (so aliases can tailor messages); the remaining elements
// are the fully substituted words. args is valid only during the call: the
// interpreter reuses the slice for later commands, so a command that keeps
// words past its return copies them (keeping a string is fine).
type Command func(i *Interp, args []string) Result

// variable is a scalar or array variable slot. A slot holds either a scalar
// value, an array, or a link to a variable in another frame (upvar/global).
type variable struct {
	value string
	arr   map[string]string
	isArr bool
	// written reports that a write has fixed the variable's kind. A
	// variable created only as an upvar or global target reads as an
	// empty scalar, and either a scalar or an element write may claim it.
	written bool
	link    *variable // non-nil for upvar/global aliases

	// num and list memoize the vm's numeric classification and the parsed
	// list form of value: numState is 1 when num == vm.ClassifyOperand(value)
	// and list is non-nil when it holds ParseList(value). Every write to
	// value drops both (setScalar); a writer that already holds the new
	// value's native form may re-establish its memo afterwards.
	num      vm.Value
	numState uint8
	list     *vm.List
}

func (v *variable) target() *variable {
	for v.link != nil {
		v = v.link
	}
	return v
}

// setScalar stores s as the scalar value, dropping every memo of the old
// one. The caller has checked the variable is not an array.
func (v *variable) setScalar(s string) {
	v.value = s
	v.written = true
	v.numState = 0
	v.list = nil
}

// memoList memoizes the list form of a scalar's value, unless it is
// memoized already or the value does not parse as a list.
func (v *variable) memoList() {
	if v.list == nil {
		if items, err := ParseList(v.value); err == nil {
			v.list = vm.ParsedList(items, v.value)
		}
	}
}

// frame is one level of the procedure call stack. Frame 0 holds globals
// by name in vars. A proc frame binds the names of its proc's layout in
// slots (slot k holds layout.names[k]; nil is unbound) and keeps vars only
// for names outside its slot window, creating the map on first need.
type frame struct {
	vars   map[string]*variable
	layout *procLayout
	slots  []*variable
}

// procLayout assigns a proc's variables to frame slots: the formals first,
// then locals in the order some call first bound them. A name's slot never
// changes; a frame's window covers the layout as it stood when the frame
// was pushed, so a name learned later lives in that frame's map.
type procLayout struct {
	names []string
	index map[string]int32
}

// maxLayoutSlots bounds a layout, so that names computed at run time
// (`set $name`) cannot grow every later frame without limit; past it,
// new names live in the frame's map.
const maxLayoutSlots = 64

func newProcLayout(formals []ProcArg) *procLayout {
	l := &procLayout{index: make(map[string]int32, len(formals))}
	for _, f := range formals {
		l.learn(f.Name)
	}
	return l
}

// learn gives name the next slot, unless it has one or the layout is full.
func (l *procLayout) learn(name string) {
	if _, ok := l.index[name]; ok || len(l.names) >= maxLayoutSlots {
		return
	}
	l.index[name] = int32(len(l.names))
	l.names = append(l.names, name)
}

// slot reports the window slot that binds name in f, if any.
func (f *frame) slot(name string) (int32, bool) {
	if f.layout == nil {
		return 0, false
	}
	k, ok := f.layout.index[name]
	return k, ok && int(k) < len(f.slots)
}

// lookup returns name's binding in f (a link is not followed), or nil.
func (f *frame) lookup(name string) *variable {
	if k, ok := f.slot(name); ok {
		return f.slots[k]
	}
	return f.vars[name]
}

// put binds name to v in f.
func (f *frame) put(name string, v *variable) {
	if k, ok := f.slot(name); ok {
		f.slots[k] = v
		return
	}
	if f.layout != nil {
		f.layout.learn(name)
	}
	if f.vars == nil {
		f.vars = make(map[string]*variable)
	}
	f.vars[name] = v
}

// drop unbinds name in f. The variable itself is left as it was,
// because a link elsewhere may still reach it.
func (f *frame) drop(name string) {
	if k, ok := f.slot(name); ok {
		f.slots[k] = nil
		return
	}
	delete(f.vars, name)
}

// names returns the names bound in f, sorted.
func (f *frame) names() []string {
	var names []string
	for k, v := range f.slots {
		if v != nil {
			names = append(names, f.layout.names[k])
		}
	}
	for n := range f.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Proc is a user-defined procedure.
type Proc struct {
	Args []ProcArg
	Body string

	layout *procLayout
}

// ProcArg is one formal parameter, optionally carrying a default.
type ProcArg struct {
	Name       string
	Default    string
	HasDefault bool
}

// Interp is a Tcl interpreter: a command table, a variable frame stack, and
// the evaluation machinery. It is not safe for concurrent use; expect drives
// a single interpreter from a single goroutine, exactly as the original did.
type Interp struct {
	commands map[string]Command
	procs    map[string]*Proc
	frames   []*frame

	// procFrames holds one frame per proc call nesting level, reused by
	// every call at that level; freeVars holds the variables of returned
	// frames for the next frame to bind. Calls nest, so both are stacks.
	procFrames []*frame
	procCalls  int
	freeVars   []*variable

	// Stdout and Stderr receive the output of puts/print and error traces.
	// They default to the process's own streams but are swappable so tests
	// and the expect engine's logging layer can capture them.
	Stdout io.Writer
	Stderr io.Writer

	// ErrorInfo accumulates a human-readable evaluation trace after an
	// error, in the manner of Tcl's errorInfo.
	ErrorInfo string

	// Trace, when non-nil, is called with every command about to be
	// executed (after substitution). It implements the paper's §3.3
	// "tracing - Programs may be traced to assist debugging". Like a
	// Command's args, words is valid only during the call.
	Trace func(depth int, words []string)

	// DispatchHook, when non-nil, observes completed command dispatches:
	// name, call depth, and time spent (command body or procedure call,
	// including everything beneath it). Where Trace shows what is about to
	// run, DispatchHook reports what it cost — the expect engine feeds its
	// eval-dispatch latency histogram and flight recorder through it.
	// Which dispatches it sees depends on Watching: with Watching nil,
	// every one; otherwise the seeded sample, plus every dispatch while
	// Trace is set or Watching returns true. A reported dispatch costs two
	// monotonic clock reads (no wall-clock read) plus the hook call; one
	// that is not reported costs a counter increment and the Watching
	// call. Unlike Trace it leaves the vm's specialized fast paths on.
	// DispatchEnd and DispatchSampled describe the dispatch while the hook
	// runs. Leave nil for the zero-overhead path.
	DispatchHook func(name string, depth int, d time.Duration)

	// Watching, when non-nil, gates DispatchHook to a sample: a dispatch
	// is timed and reported only if it is sampled (about 1 in 64, at
	// seeded ordinals; the first dispatch always is), Trace is set, or
	// Watching returns true. The expect engine sets it to its flight
	// recorder's Watched, so a live consumer of eval events (exp_internal
	// 2, an unfiltered trace tap) sees every dispatch and an unwatched run
	// pays for the sample only. Nil keeps every dispatch reported.
	Watching func() bool

	// MaxDepth bounds recursion to turn runaway scripts into errors
	// instead of stack exhaustion.
	MaxDepth int

	// StepLimit, when > 0, bounds the total number of evaluation steps
	// (command dispatches plus script evaluations) before Eval gives up
	// with an error. MaxDepth only catches runaway *recursion*; StepLimit
	// also catches flat infinite loops (`while 1 {}`), which makes it the
	// safety net for fuzzing and other adversarial-input drivers. Steps
	// are charged where EvalWords and EvalScript charge them — the vm's
	// inlined sites charge at the same points — so a given script costs
	// the same number of steps under either evaluation mode. Zero means no
	// limit.
	StepLimit int64

	depth       int
	steps       int64
	exitHandler func(code int)

	// dispatches counts every command dispatch (see Dispatches);
	// nextSample is the ordinal of the next sampled one, and samples how
	// many have been taken, which indexes the gap sequence.
	dispatches int64
	nextSample int64
	samples    uint64

	// dispatchEnd and dispatchSample describe the dispatch DispatchHook
	// is reporting: the clock.Now reading that ended it (see DispatchEnd)
	// and its ordinal if it was sampled, else 0 (see DispatchSampled).
	dispatchEnd    int64
	dispatchSample int64

	// evalMode selects the engine behind EvalScript and expr: the bytecode
	// vm (default) or the classic re-parsing evaluator. The vm caches hold
	// lowered programs plus their inline-cache arrays, keyed by source
	// text, so proc bodies, loop bodies, if arms and expressions compile
	// once. Keying by text makes invalidation automatic: redefining a proc
	// or renaming a command changes which body text is evaluated (dispatch
	// stays by-name at eval time), never which program a text maps to.
	evalMode    EvalMode
	vmCache     *lru.Cache[string, *vmEntry]
	vmExprCache *lru.Cache[string, *vmExprEntry]

	// One-entry front caches ahead of the vm LRUs: the steady state
	// re-evaluates the same text (loop bodies, proc bodies), where a
	// pointer-equal string hit skips the lock + map + recency update.
	vmFront        *vmEntry
	vmFrontKey     string
	vmExprFront    *vmExprEntry
	vmExprFrontKey string
	// vmFrontHits counts script lookups the front cache answered, which
	// the vm LRU's own statistics never see.
	vmFrontHits uint64

	// vmRegs is the vm's shared register stack; each program execution
	// opens a window on top and pops it on return. vmArgs is the same for
	// the argument vectors of commands whose words the vm substituted.
	vmRegs []vm.Value
	vmArgs []string

	// cmdEpoch and varEpoch version the vm's inline caches. cmdEpoch
	// advances whenever the command/procedure tables change shape
	// (register, unregister, proc, rename); varEpoch whenever a variable
	// binding is destroyed or replaced (unset, an upvar/global over an
	// existing name, restore). A new binding needs no bump: caches never
	// hold a miss. Both start at 1 so zero-valued cache entries are always
	// stale.
	cmdEpoch uint64
	varEpoch uint64
}

// DefaultEvalCacheSize bounds the vm's script and expr caches. A few
// hundred entries covers every distinct proc body, loop body, and expression
// in scripts far larger than the paper's examples while keeping worst-case
// retained memory small.
const DefaultEvalCacheSize = 512

// New creates an interpreter with the full built-in command set registered.
func New() *Interp {
	i := &Interp{
		commands: make(map[string]Command),
		procs:    make(map[string]*Proc),
		frames:   []*frame{{vars: make(map[string]*variable)}},
		Stdout:   os.Stdout,
		Stderr:   os.Stderr,
		MaxDepth: 1000,
		cmdEpoch: 1,
		varEpoch: 1,

		vmCache:     lru.New[string, *vmEntry](DefaultEvalCacheSize),
		vmExprCache: lru.New[string, *vmExprEntry](DefaultEvalCacheSize),
	}
	registerCoreCommands(i)
	registerStringCommands(i)
	registerListCommands(i)
	registerIOCommands(i)
	registerCompatCommands(i)
	return i
}

// Register installs (or replaces) a command implementation.
func (i *Interp) Register(name string, cmd Command) {
	i.commands[name] = cmd
	i.cmdEpoch++
}

// Unregister removes a command; it reports whether the command existed.
func (i *Interp) Unregister(name string) bool {
	_, ok := i.commands[name]
	delete(i.commands, name)
	i.cmdEpoch++
	return ok
}

// CommandNames returns the sorted names of all registered commands,
// including procedures.
func (i *Interp) CommandNames() []string {
	names := make([]string, 0, len(i.commands)+len(i.procs))
	for n := range i.commands {
		names = append(names, n)
	}
	for n := range i.procs {
		if _, dup := i.commands[n]; !dup {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// ProcNames returns the sorted names of defined procedures.
func (i *Interp) ProcNames() []string {
	names := make([]string, 0, len(i.procs))
	for n := range i.procs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupProc returns the definition of a procedure, if any.
func (i *Interp) LookupProc(name string) (*Proc, bool) {
	p, ok := i.procs[name]
	return p, ok
}

// OnExit installs the handler invoked by the exit command. The expect CLI
// uses this to tear down spawned processes before the process exits; when no
// handler is set, exit calls os.Exit directly.
func (i *Interp) OnExit(fn func(code int)) { i.exitHandler = fn }

// current returns the active (innermost) frame.
func (i *Interp) current() *frame { return i.frames[len(i.frames)-1] }

// Level returns the current procedure call depth (0 = global).
func (i *Interp) Level() int { return len(i.frames) - 1 }

// lookupVar finds name's slot in the current frame, resolving links.
func (i *Interp) lookupVar(name string) (*variable, bool) {
	v := i.current().lookup(name)
	if v == nil {
		return nil, false
	}
	return v.target(), true
}

// newVar returns an empty variable, reusing one a returned frame freed.
func (i *Interp) newVar() *variable {
	if n := len(i.freeVars); n > 0 {
		v := i.freeVars[n-1]
		i.freeVars = i.freeVars[:n-1]
		return v
	}
	return &variable{}
}

// bindVar returns the target of name's binding in f, creating an empty
// variable when name is unbound.
func (i *Interp) bindVar(f *frame, name string) *variable {
	if v := f.lookup(name); v != nil {
		return v.target()
	}
	v := i.newVar()
	f.put(name, v)
	return v
}

// linkVar makes name in f an alias for target. Replacing an existing
// binding leaves the old variable to any link that still reaches it and
// invalidates the inline caches that resolved it.
func (i *Interp) linkVar(f *frame, name string, target *variable) {
	v := i.newVar()
	v.link = target
	if f.lookup(name) != nil {
		i.varEpoch++
	}
	f.put(name, v)
}

// setVar writes scalar or array element name in the current frame. Like
// Tcl, it refuses a write that would change the variable's kind: a scalar
// write to an array, or an element write to a scalar.
func (i *Interp) setVar(name, value string) Result {
	base, elem, isElem := splitArrayRef(name)
	v := i.bindVar(i.current(), base)
	if isElem {
		if !v.isArr {
			if v.written {
				return Errf("can't set %q: variable isn't array", name)
			}
			v.isArr, v.written = true, true
			v.arr = make(map[string]string)
		}
		v.arr[elem] = value
		return Ok(value)
	}
	if v.isArr {
		return Errf("can't set %q: variable is array", name)
	}
	v.setScalar(value)
	return Ok(value)
}

// SetVar sets scalar (or array element) name in the current frame and
// returns value. A write that would turn an array into a scalar or a
// scalar into an array is refused, as Tcl refuses it, and leaves the
// variable unchanged; the Tcl commands report that refusal as an error.
func (i *Interp) SetVar(name, value string) string {
	i.setVar(name, value)
	return value
}

// GetVar fetches scalar (or array element) name from the current frame.
func (i *Interp) GetVar(name string) (string, bool) {
	base, elem, isElem := splitArrayRef(name)
	v, ok := i.lookupVar(base)
	if !ok {
		return "", false
	}
	if isElem {
		if !v.isArr {
			return "", false
		}
		val, ok := v.arr[elem]
		return val, ok
	}
	if v.isArr {
		return "", false
	}
	return v.value, true
}

// UnsetVar removes a variable (or array element) from the current frame.
func (i *Interp) UnsetVar(name string) bool {
	base, elem, isElem := splitArrayRef(name)
	f := i.current()
	v := f.lookup(base)
	if v == nil {
		return false
	}
	if isElem {
		t := v.target()
		if !t.isArr {
			return false
		}
		_, ok := t.arr[elem]
		delete(t.arr, elem)
		return ok
	}
	f.drop(base)
	i.varEpoch++
	return true
}

// GlobalSet sets a variable in the global frame regardless of current level.
func (i *Interp) GlobalSet(name, value string) {
	saved := i.frames
	i.frames = i.frames[:1]
	i.SetVar(name, value)
	i.frames = saved
}

// GlobalGet reads a variable from the global frame.
func (i *Interp) GlobalGet(name string) (string, bool) {
	saved := i.frames
	i.frames = i.frames[:1]
	v, ok := i.GetVar(name)
	i.frames = saved
	return v, ok
}

// VarSnapshot is the serializable value of one variable: a scalar or a
// whole array. It is the unit of the interpreter state a session
// checkpoint carries across a process boundary.
type VarSnapshot struct {
	Value string            `json:"value,omitempty"`
	Arr   map[string]string `json:"arr,omitempty"`
	IsArr bool              `json:"is_arr,omitempty"`
}

// SnapshotGlobals captures every global variable (following upvar links
// to their targets) as deep copies safe to serialize or hold across
// further evaluation.
func (i *Interp) SnapshotGlobals() map[string]VarSnapshot {
	g := i.frames[0]
	out := make(map[string]VarSnapshot, len(g.vars))
	for name, v := range g.vars {
		t := v.target()
		if t.isArr {
			arr := make(map[string]string, len(t.arr))
			for k, val := range t.arr {
				arr[k] = val
			}
			out[name] = VarSnapshot{Arr: arr, IsArr: true}
		} else {
			out[name] = VarSnapshot{Value: t.value}
		}
	}
	return out
}

// RestoreGlobals installs a snapshot into the global frame, overwriting
// the variables it names and leaving all others untouched.
func (i *Interp) RestoreGlobals(snap map[string]VarSnapshot) {
	g := i.frames[0]
	for name, vs := range snap {
		v := &variable{written: true}
		if vs.IsArr {
			v.isArr = true
			v.arr = make(map[string]string, len(vs.Arr))
			for k, val := range vs.Arr {
				v.arr[k] = val
			}
		} else {
			v.value = vs.Value
		}
		g.vars[name] = v
	}
	i.varEpoch++
}

// splitArrayRef splits "a(b)" into ("a","b",true); plain names pass through.
func splitArrayRef(name string) (base, elem string, isElem bool) {
	if n := len(name); n > 2 && name[n-1] == ')' {
		if open := strings.IndexByte(name, '('); open > 0 {
			return name[:open], name[open+1 : n-1], true
		}
	}
	return name, "", false
}

// TclError is the Go error surfaced by Eval when a script fails.
type TclError struct {
	Message   string
	ErrorInfo string
}

func (e *TclError) Error() string { return e.Message }

// Eval evaluates a complete script and returns its final result string. A
// script-level error (code Error) becomes a *TclError; break/continue/return
// escaping the script are reported as errors, matching Tcl's top level.
func (i *Interp) Eval(script string) (string, error) {
	res := i.EvalScript(script)
	switch res.Code {
	case OK, Return:
		return res.Value, nil
	case Error:
		// Scripts can inspect the trace through the classic variable.
		i.GlobalSet("errorInfo", res.Value+i.ErrorInfo)
		return "", &TclError{Message: res.Value, ErrorInfo: i.ErrorInfo}
	case Break:
		return "", &TclError{Message: `invoked "break" outside of a loop`}
	case Continue:
		return "", &TclError{Message: `invoked "continue" outside of a loop`}
	default:
		return "", &TclError{Message: fmt.Sprintf("command returned bad code: %d", res.Code)}
	}
}

// EvalCacheStats reports cumulative hit/miss/eviction counts for the vm's
// script cache: its front entry's hits plus its LRU. Classic evaluation
// consults no cache and adds nothing.
func (i *Interp) EvalCacheStats() (hits, misses, evicted uint64) {
	hits, misses, evicted = i.vmCache.Stats()
	return hits + i.vmFrontHits, misses, evicted
}

// EvalScript evaluates a script and returns the raw completion Result,
// allowing callers (loops, the expect command's actions) to observe
// break/continue/return codes.
func (i *Interp) EvalScript(script string) Result {
	if i.depth >= i.MaxDepth {
		return Errf("too many nested evaluations (infinite loop?)")
	}
	if res, ok := i.spendStep(); !ok {
		return res
	}
	i.depth++
	defer func() { i.depth-- }()
	if i.evalMode == EvalClassic {
		return i.evalScript(script, false).Result
	}
	return i.vmEvalScript(script)
}

// spendStep charges one evaluation step against StepLimit. It returns
// ok=false with the error Result once the budget is exhausted; because the
// charge happens at the dispatch point, not inside command bodies, an
// exhausted interpreter refuses even `catch` — scripts cannot swallow the
// limit and keep running.
func (i *Interp) spendStep() (Result, bool) {
	i.steps++
	if i.StepLimit > 0 && i.steps > i.StepLimit {
		return Errf("evaluation step limit exceeded (%d steps)", i.StepLimit), false
	}
	return Result{}, true
}

// Steps reports how many evaluation steps have been charged so far.
func (i *Interp) Steps() int64 { return i.steps }

// ResetSteps zeroes the step counter, restarting the StepLimit budget.
func (i *Interp) ResetSteps() { i.steps = 0 }

// EvalWords dispatches an already-substituted command.
func (i *Interp) EvalWords(words []string) Result {
	if len(words) == 0 {
		return Ok("")
	}
	if res, ok := i.spendStep(); !ok {
		return res
	}
	if i.Trace != nil {
		i.Trace(i.Level(), words)
	}
	name := words[0]
	sp := i.stamp()
	res := i.dispatch(name, words)
	i.report(name, sp)
	return res
}

// span is one dispatch opened by stamp: the monotonic start reading, or
// -1 when the dispatch goes unreported, and its ordinal if it was
// sampled, else 0. The sample decision travels with the reading rather
// than on the Interp because a nested dispatch runs between a stamp and
// its report.
type span struct{ start, sample int64 }

// stamp opens one dispatch: it counts it, decides whether it is sampled,
// and reads the clock if it will be reported. Every dispatch site, here
// and in the vm, brackets the command with stamp and report, after its
// step is charged, so all modes count, sample and report the same name,
// depth and order. An unhooked dispatch short of the next sample point
// costs the increment and two compares, inlined.
func (i *Interp) stamp() span {
	i.dispatches++
	if i.DispatchHook == nil && i.dispatches < i.nextSample {
		return span{start: -1}
	}
	return i.open()
}

// open is stamp's slow path: take the sample if this dispatch is at the
// next sample point, then apply the Watching gate.
func (i *Interp) open() span {
	var sample int64
	if i.dispatches >= i.nextSample {
		sample = i.dispatches
		i.nextSample = sample + sampleGap(i.samples)
		i.samples++
	}
	if i.DispatchHook == nil || sample == 0 && i.Watching != nil && i.Trace == nil && !i.Watching() {
		return span{start: -1}
	}
	return span{clock.Now(), sample}
}

// sampleSeed seeds every interpreter's gap sequence. It is a constant,
// not an option: the two eval modes dispatch in the same order, so they
// sample the same ordinals, and a run's sample is reproducible.
const sampleSeed = 0x6a09e667f3bcc908

// sampleGap returns the k-th gap between sampled ordinals: the k-th
// output of splitmix64 from sampleSeed, reduced to 1..127 (mean 64).
// The gaps are random rather than a fixed period because a fixed period
// can alias with a loop whose body makes a matching number of
// dispatches, leaving some command sites never sampled.
func sampleGap(k uint64) int64 {
	z := sampleSeed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return 1 + int64(z%127)
}

// report closes a dispatch opened by stamp. A dispatch opened unreported
// stays unreported; the check is small enough to inline, so that path
// costs no call.
func (i *Interp) report(name string, sp span) {
	if sp.start >= 0 {
		i.observe(name, sp)
	}
}

// observe is report's armed path: one more monotonic read, then the hook
// call with the elapsed time.
func (i *Interp) observe(name string, sp span) {
	if i.DispatchHook == nil {
		return
	}
	end := clock.Now()
	i.dispatchEnd, i.dispatchSample = end, sp.sample
	i.DispatchHook(name, i.Level(), time.Duration(end-sp.start))
}

// DispatchEnd returns the clock.Now reading that ended the dispatch
// DispatchHook is reporting, so a hook can stamp what it records without
// reading the clock again. It is meaningful only inside the hook.
func (i *Interp) DispatchEnd() int64 { return i.dispatchEnd }

// DispatchSampled reports whether the dispatch DispatchHook is reporting
// is one of the seeded sample, as stamp decided when it opened. It is
// meaningful only inside the hook.
func (i *Interp) DispatchSampled() bool { return i.dispatchSample != 0 }

// Dispatches returns how many command dispatches the interpreter has
// made, counted exactly whether or not they were sampled or reported.
func (i *Interp) Dispatches() int64 { return i.dispatches }

// dispatch resolves name against commands then procs and runs it.
func (i *Interp) dispatch(name string, words []string) Result {
	if cmd, ok := i.commands[name]; ok {
		return cmd(i, words)
	}
	if p, ok := i.procs[name]; ok {
		return i.callProc(name, p, words[1:])
	}
	return Errf("invalid command name %q", name)
}

// callProc pushes a frame, binds formals, and runs the body.
func (i *Interp) callProc(name string, p *Proc, args []string) Result {
	nf := len(p.Args)
	variadic := nf > 0 && p.Args[nf-1].Name == "args"
	for ai, formal := range p.Args {
		if variadic && ai == nf-1 {
			break
		}
		if ai >= len(args) && !formal.HasDefault {
			return Errf("no value given for parameter %q to %q", formal.Name, name)
		}
	}
	if !variadic && len(args) > nf {
		return Errf("called %q with too many arguments", name)
	}
	f := i.pushFrame(p)
	defer i.popFrame(f)
	for ai, formal := range p.Args {
		var val string
		switch {
		case variadic && ai == nf-1:
			val = FormList(args[min(ai, len(args)):])
		case ai < len(args):
			val = args[ai]
		default:
			val = formal.Default
		}
		i.bindVar(f, formal.Name).setScalar(val)
	}

	res := i.EvalScript(p.Body)
	switch res.Code {
	case Return, OK:
		return Ok(res.Value)
	case Break:
		return Errf(`invoked "break" outside of a loop`)
	case Continue:
		return Errf(`invoked "continue" outside of a loop`)
	default:
		i.ErrorInfo += fmt.Sprintf("\n    (procedure %q line 1)", name)
		return res
	}
}

// pushFrame makes the frame of a call to p current: the frame kept for
// this call nesting level, with a slot window over p's layout as it
// stands now.
func (i *Interp) pushFrame(p *Proc) *frame {
	if i.procCalls == len(i.procFrames) {
		i.procFrames = append(i.procFrames, &frame{})
	}
	f := i.procFrames[i.procCalls]
	i.procCalls++
	f.layout = p.layout
	n := len(p.layout.names)
	if cap(f.slots) < n {
		f.slots = make([]*variable, n)
	}
	f.slots = f.slots[:n]
	i.frames = append(i.frames, f)
	return f
}

// popFrame returns from the call that pushed f, freeing the variables
// its slots bound. Nothing outlives the frame that can reach them: links
// only point from a frame to itself or to the frames beneath it.
func (i *Interp) popFrame(f *frame) {
	i.frames = i.frames[:len(i.frames)-1]
	i.procCalls--
	for k, v := range f.slots {
		if v != nil {
			*v = variable{}
			i.freeVars = append(i.freeVars, v)
			f.slots[k] = nil
		}
	}
	f.vars = nil
}

// Subst performs $, [], and backslash substitution on text, as if it were
// the body of a double-quoted word.
func (i *Interp) Subst(text string) (string, error) {
	var sb strings.Builder
	p := &parser{interp: i, src: text}
	if res := p.substInto(&sb, len(text), substAll); res.Code != OK {
		return "", &TclError{Message: res.Value}
	}
	return sb.String(), nil
}
