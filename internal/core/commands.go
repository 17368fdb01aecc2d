package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/pattern"
	"repro/internal/tcl"
)

// registerExpectCommands grafts the paper's command set (§3.1–§3.3) onto
// the engine's Tcl interpreter.
func registerExpectCommands(e *Engine) {
	i := e.Interp
	i.Register("spawn", e.cmdSpawn)
	i.Register("send", e.cmdSend)
	i.Register("expect", e.cmdExpect)
	i.Register("interact", e.cmdInteract)
	i.Register("close", e.cmdClose)
	i.Register("select", e.cmdSelect)
	i.Register("wait", e.cmdWait)
	i.Register("send_user", e.cmdSendUser)
	i.Register("expect_user", e.cmdExpectUser)
	i.Register("log_user", e.cmdLogUser)
	i.Register("log_file", e.cmdLogFile)
	i.Register("system", e.cmdSystem)
	i.Register("sleep", e.cmdSleep)
	i.Register("trace", e.cmdTrace)
	i.Register("match_max", e.cmdMatchMax)
	i.Register("expect_any", e.cmdExpectAny)
	i.Register("exp_internal", e.cmdExpInternal)
}

// cmdExpInternal: exp_internal 0|1|2 — controls the engine's diagnostic
// output, the paper-era debugging aid that narrates the dialogue: every
// chunk received and every pattern attempt with its verdict. 0 silences
// the narration (the flight recorder keeps running), 1 shows the dialogue
// view, 2 additionally shows sends, eval dispatches, timers, and faults.
func (e *Engine) cmdExpInternal(i *tcl.Interp, args []string) tcl.Result {
	if len(args) != 2 {
		return tcl.Errf(`wrong # args: should be "exp_internal 0|1|2"`)
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n < 0 || n > 2 {
		return tcl.Errf("exp_internal: expected 0, 1, or 2, got %q", args[1])
	}
	e.rec.SetDiag(n, i.Stderr)
	return tcl.Ok("")
}

// cmdExpectAny: expect_any {spawn_id ...} patlist action … — the combined
// expect/select of §8: waits on several processes at once; the first one
// whose buffer matches becomes the current process (spawn_id is set as a
// side effect) and its action runs.
func (e *Engine) cmdExpectAny(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 3 {
		return tcl.Errf(`wrong # args: should be "expect_any spawnIdList patlist action ?patlist action ...?"`)
	}
	ids, err := tcl.ParseList(args[1])
	if err != nil || len(ids) == 0 {
		return tcl.Errf("expect_any: bad spawn_id list %q", args[1])
	}
	sessions, err := e.sessionsByID("expect_any", ids)
	if err != nil {
		return tcl.Errf("%v", err)
	}
	return e.evalExpect("expect_any", sessions, args[2:], func(cases []Case) (*MatchResult, error) {
		winner, r, err := ExpectAny(e.scriptTimeout(), sessions, cases...)
		if winner != nil {
			e.Interp.GlobalSet("spawn_id", ids[slices.Index(sessions, winner)])
		}
		return r, err
	})
}

// cmdSpawn: spawn program ?args? — creates a new process whose stdin,
// stdout, and stderr are connected to expect. Sets spawn_id as a side
// effect and returns the UNIX process id (§3.2). The -network form,
// `spawn -network host:port`, dials a socket session (an expectd program
// or any line service) instead of forking; the returned pid is synthetic.
func (e *Engine) cmdSpawn(i *tcl.Interp, args []string) tcl.Result {
	if len(args) >= 2 && args[1] == "-network" {
		if len(args) != 3 {
			return tcl.Errf(`wrong # args: should be "spawn -network host:port"`)
		}
		s, _, err := e.SpawnRemote("", args[2])
		if err != nil {
			return tcl.Errf("spawn -network %s: %v", args[2], err)
		}
		return tcl.Ok(strconv.Itoa(s.Pid()))
	}
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "spawn program ?args?"`)
	}
	s, _, err := e.Spawn(args[1], args[2:]...)
	if err != nil {
		return tcl.Errf("spawn %s: %v", args[1], err)
	}
	return tcl.Ok(strconv.Itoa(s.Pid()))
}

// cmdSend: send args — sends to the current process. Multiple words are
// joined with single spaces, so `send hello world\r` types exactly
// "hello world\r" (§3.1).
func (e *Engine) cmdSend(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "send string"`)
	}
	s, err := e.Current()
	if err != nil {
		return tcl.Errf("send: %v", err)
	}
	if err := s.Send(strings.Join(args[1:], " ")); err != nil {
		return tcl.Errf("%v", err)
	}
	return tcl.Ok("")
}

// expectArm couples one patlist with its action.
type expectArm struct {
	action string
}

// buildExpectCases translates script-level patlist/action pairs into
// engine cases. Each patlist is a Tcl list of glob patterns, one of the
// special words eof / timeout, or a flagged single pattern: `-re pattern`
// (regular expression — the abstract's "expect patterns can include
// regular expressions"), `-ex pattern` (exact substring), or `-gl
// pattern` (explicit glob). Returns the cases, a parallel case→arm
// index, and the arms.
func buildExpectCases(args []string) (cases []Case, caseArm []int, arms []expectArm, err error) {
	for k := 0; k < len(args); {
		patlist := args[k]
		kind := CaseGlob
		switch patlist {
		case "-re", "-ex", "-gl":
			if k+1 >= len(args) {
				return nil, nil, nil, fmt.Errorf("expect: %s requires a pattern", patlist)
			}
			switch patlist {
			case "-re":
				kind = CaseRegexp
			case "-ex":
				kind = CaseExact
			}
			k++
			patlist = args[k]
			action := ""
			if k+1 < len(args) {
				action = args[k+1]
			}
			k += 2
			armIdx := len(arms)
			arms = append(arms, expectArm{action: action})
			switch kind {
			case CaseRegexp:
				re, cerr := pattern.CompileRegexp(patlist)
				if cerr != nil {
					return nil, nil, nil, fmt.Errorf("expect -re: %v", cerr)
				}
				cases = append(cases, Case{Kind: CaseRegexp, Pattern: patlist, re: re})
			case CaseExact:
				cases = append(cases, Exact(patlist))
			default:
				cases = append(cases, Glob(patlist))
			}
			caseArm = append(caseArm, armIdx)
			continue
		}
		action := ""
		if k+1 < len(args) {
			action = args[k+1]
		}
		k += 2
		armIdx := len(arms)
		arms = append(arms, expectArm{action: action})
		switch patlist {
		case "eof":
			cases = append(cases, EOFCase())
			caseArm = append(caseArm, armIdx)
		case "timeout":
			cases = append(cases, TimeoutCase())
			caseArm = append(caseArm, armIdx)
		default:
			pats, perr := tcl.ParseList(patlist)
			if perr != nil || len(pats) == 0 {
				// Unbalanced or empty: treat the raw text as one pattern.
				pats = []string{patlist}
			}
			for _, p := range pats {
				cases = append(cases, Glob(p))
				caseArm = append(caseArm, armIdx)
			}
		}
	}
	return cases, caseArm, arms, nil
}

// evalExpect is the shared core of expect, expect_user and expect_any:
// it builds the cases, applies the script's match_max to every session in
// ss, lets wait resolve the call over them, and runs the winning arm. A
// wait that ends at EOF or at the deadline without an arm for it simply
// completes.
func (e *Engine) evalExpect(cmd string, ss []*Session, args []string, wait func([]Case) (*MatchResult, error)) tcl.Result {
	cases, caseArm, arms, err := buildExpectCases(args)
	if err != nil {
		return tcl.Errf("%v", err)
	}
	// Honor the script-level variables at call time (§3.1).
	mm := e.varInt("match_max", DefaultMatchMax)
	for _, s := range ss {
		if mm != s.MatchMax() {
			s.SetMatchMax(mm)
		}
	}
	r, eerr := wait(cases)
	if r != nil {
		e.Interp.GlobalSet("expect_match", r.Text)
	}
	if eerr != nil {
		if errors.Is(eerr, ErrTimeout) || errors.Is(eerr, ErrEOF) {
			return tcl.Ok("")
		}
		return tcl.Errf("%s: %v", cmd, eerr)
	}
	action := arms[caseArm[r.Index]].action
	if action == "" {
		return tcl.Ok("")
	}
	// The action's result — including break/continue/return codes — is the
	// result of expect, which is what lets `expect {*welcome*} break`
	// terminate an enclosing loop.
	return e.Interp.EvalScript(action)
}

// cmdExpect: expect patlist1 action1 patlist2 action2 … (§3.1).
func (e *Engine) cmdExpect(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "expect patlist action ?patlist action ...?"`)
	}
	s, sid, err := e.currentWithID()
	if err != nil {
		return tcl.Errf("expect: %v", err)
	}
	return e.evalExpect("expect", []*Session{s}, args[1:], func(cases []Case) (*MatchResult, error) {
		r, err := s.ExpectTimeout(e.scriptTimeout(), cases...)
		if r != nil && r.Eof {
			// "Both expect and interact will detect when the current
			// process exits and implicitly do a close" (§3.2).
			s.Close()
			e.removeSession(sid)
		}
		return r, err
	})
}

func (e *Engine) currentWithID() (*Session, int, error) {
	idStr, ok := e.Interp.GlobalGet("spawn_id")
	if !ok || idStr == "" {
		return nil, 0, fmt.Errorf("no current process (nothing spawned yet)")
	}
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return nil, 0, fmt.Errorf("bad spawn_id %q", idStr)
	}
	s, live := e.SessionByID(id)
	if !live {
		return nil, 0, fmt.Errorf("spawn_id %d refers to no live process", id)
	}
	return s, id, nil
}

// cmdInteract: interact ?escape-character? — gives control to the user
// (§3.1). After the escape character, script commands may be entered;
// `continue` resumes the interaction and `return ?value?` ends it.
func (e *Engine) cmdInteract(i *tcl.Interp, args []string) tcl.Result {
	if len(args) > 2 {
		return tcl.Errf(`wrong # args: should be "interact ?escape-character?"`)
	}
	s, sid, err := e.currentWithID()
	if err != nil {
		return tcl.Errf("interact: %v", err)
	}
	var escape byte
	if len(args) == 2 && args[1] != "" {
		escape = args[1][0]
	}
	// During interact the drain loop is the user's window on the process;
	// leaving log_user echo on would print everything twice.
	savedLogUser := e.LogUser()
	e.SetLogUser(false)
	defer e.SetLogUser(savedLogUser)
	outcome, ierr := s.Interact(InteractOptions{
		UserIn:  e.userIn,
		UserOut: e.userOut,
		Escape:  escape,
		OnEscape: func(userIn io.Reader) (bool, string) {
			return e.escapeCommandLoop(userIn)
		},
	})
	if ierr != nil {
		return tcl.Errf("interact: %v", ierr)
	}
	if outcome.Reason == InteractEOF {
		e.removeSession(sid)
	}
	return tcl.Ok(outcome.Result)
}

// escapeCommandLoop reads and evaluates command lines typed after the
// interact escape character, until continue or return.
func (e *Engine) escapeCommandLoop(userIn io.Reader) (resume bool, result string) {
	fmt.Fprint(e.userOut, "\nexpect> ")
	for {
		line, err := readUserLine(userIn)
		if err != nil {
			return false, ""
		}
		res := e.Interp.EvalScript(line)
		switch res.Code {
		case tcl.Continue:
			return true, ""
		case tcl.Return:
			return false, res.Value
		case tcl.Error:
			fmt.Fprintf(e.userOut, "error: %s\nexpect> ", res.Value)
		default:
			if res.Value != "" {
				fmt.Fprintln(e.userOut, res.Value)
			}
			fmt.Fprint(e.userOut, "expect> ")
		}
	}
}

// readUserLine reads one newline-terminated line, a byte at a time so it
// never steals type-ahead beyond the line.
func readUserLine(r io.Reader) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 1)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			c := buf[0]
			if c == '\n' || c == '\r' {
				return sb.String(), nil
			}
			sb.WriteByte(c)
		}
		if err != nil {
			if sb.Len() > 0 {
				return sb.String(), nil
			}
			return "", err
		}
	}
}

// cmdClose: close ?spawn_id? — closes the connection; most programs see
// EOF and exit (§3.2).
func (e *Engine) cmdClose(i *tcl.Interp, args []string) tcl.Result {
	if len(args) > 2 {
		return tcl.Errf(`wrong # args: should be "close ?spawn_id?"`)
	}
	var (
		s   *Session
		id  int
		err error
	)
	if len(args) == 2 {
		id, err = strconv.Atoi(args[1])
		if err != nil {
			return tcl.Errf("close: bad spawn_id %q", args[1])
		}
		var ok bool
		s, ok = e.SessionByID(id)
		if !ok {
			return tcl.Errf("close: spawn_id %d refers to no live process", id)
		}
	} else {
		s, id, err = e.currentWithID()
		if err != nil {
			return tcl.Errf("close: %v", err)
		}
	}
	s.Close()
	e.removeSession(id)
	return tcl.Ok("")
}

// cmdSelect: select spawn_id1 spawn_id2 … — returns the subset with input
// pending, waiting up to the timeout (§3.2).
func (e *Engine) cmdSelect(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "select spawn_id ?spawn_id ...?"`)
	}
	sessions, err := e.sessionsByID("select", args[1:])
	if err != nil {
		return tcl.Errf("%v", err)
	}
	ready := Select(e.scriptTimeout(), sessions...)
	out := make([]string, 0, len(ready))
	for _, s := range ready {
		out = append(out, args[1+slices.Index(sessions, s)])
	}
	return tcl.Ok(strings.Join(out, " "))
}

// sessionsByID resolves select's and expect_any's spawn id arguments,
// each of which must name a live process.
func (e *Engine) sessionsByID(cmd string, ids []string) ([]*Session, error) {
	sessions := make([]*Session, 0, len(ids))
	for _, idStr := range ids {
		id, err := strconv.Atoi(idStr)
		if err != nil {
			return nil, fmt.Errorf("%s: bad spawn_id %q", cmd, idStr)
		}
		s, ok := e.SessionByID(id)
		if !ok {
			return nil, fmt.Errorf("%s: spawn_id %d refers to no live process", cmd, id)
		}
		sessions = append(sessions, s)
	}
	return sessions, nil
}

// cmdWait: wait — reaps the current process and returns its exit status.
func (e *Engine) cmdWait(i *tcl.Interp, args []string) tcl.Result {
	if len(args) != 1 {
		return tcl.Errf(`wrong # args: should be "wait"`)
	}
	s, _, err := e.currentWithID()
	if err != nil {
		return tcl.Errf("wait: %v", err)
	}
	code, werr := s.Wait()
	if werr != nil {
		return tcl.Errf("wait: %v", werr)
	}
	return tcl.Ok(strconv.Itoa(code))
}

// cmdSendUser: send_user string — writes to the user regardless of
// log_user, treating the user as an output sink (§2.2).
func (e *Engine) cmdSendUser(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "send_user string"`)
	}
	if _, err := io.WriteString(e.userOut, strings.Join(args[1:], " ")); err != nil {
		return tcl.Errf("send_user: %v", err)
	}
	return tcl.Ok("")
}

// cmdExpectUser: expect_user patlist action … — reads from the user with
// the same pattern machinery as expect.
func (e *Engine) cmdExpectUser(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "expect_user patlist action ?patlist action ...?"`)
	}
	s := e.UserSession()
	return e.evalExpect("expect", []*Session{s}, args[1:], func(cases []Case) (*MatchResult, error) {
		return s.ExpectTimeout(e.scriptTimeout(), cases...)
	})
}

// cmdLogUser: log_user 0|1 — controls whether the user sees the dialogue
// (§3.3); returns the previous setting.
func (e *Engine) cmdLogUser(i *tcl.Interp, args []string) tcl.Result {
	if len(args) != 2 {
		return tcl.Errf(`wrong # args: should be "log_user 0|1"`)
	}
	old := "0"
	if e.LogUser() {
		old = "1"
	}
	on, err := strconv.Atoi(args[1])
	if err != nil {
		return tcl.Errf("log_user: expected 0 or 1, got %q", args[1])
	}
	e.SetLogUser(on != 0)
	return tcl.Ok(old)
}

// cmdLogFile: log_file ?name? — starts or stops logging the dialogue to a
// file (§3.3).
func (e *Engine) cmdLogFile(i *tcl.Interp, args []string) tcl.Result {
	if len(args) > 2 {
		return tcl.Errf(`wrong # args: should be "log_file ?name?"`)
	}
	path := ""
	if len(args) == 2 {
		path = args[1]
	}
	if err := e.SetLogFile(path); err != nil {
		return tcl.Errf("log_file: %v", err)
	}
	return tcl.Ok("")
}

// cmdSystem: system args — runs a shell command with output to the user.
func (e *Engine) cmdSystem(i *tcl.Interp, args []string) tcl.Result {
	if len(args) < 2 {
		return tcl.Errf(`wrong # args: should be "system command ?args?"`)
	}
	cmd := exec.Command("/bin/sh", "-c", strings.Join(args[1:], " "))
	cmd.Stdout = e.userOut
	cmd.Stderr = e.userOut
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		return tcl.Errf("system: %v", err)
	}
	return tcl.Ok("")
}

// cmdSleep: sleep seconds — pauses the script (fractions allowed).
func (e *Engine) cmdSleep(i *tcl.Interp, args []string) tcl.Result {
	if len(args) != 2 {
		return tcl.Errf(`wrong # args: should be "sleep seconds"`)
	}
	secs, err := strconv.ParseFloat(args[1], 64)
	if err != nil || secs < 0 {
		return tcl.Errf("sleep: bad duration %q", args[1])
	}
	time.Sleep(time.Duration(secs * float64(time.Second)))
	return tcl.Ok("")
}

// cmdTrace: trace on|off — dumps each command before execution to the
// user's stderr, the §3.3 debugging aid.
func (e *Engine) cmdTrace(i *tcl.Interp, args []string) tcl.Result {
	if len(args) != 2 {
		return tcl.Errf(`wrong # args: should be "trace on|off"`)
	}
	switch args[1] {
	case "on":
		i.Trace = func(depth int, words []string) {
			fmt.Fprintf(i.Stderr, "trace:%s %s\n",
				strings.Repeat("  ", depth), strings.Join(words, " "))
		}
	case "off":
		i.Trace = nil
	default:
		return tcl.Errf("trace: expected on or off, got %q", args[1])
	}
	return tcl.Ok("")
}

// cmdMatchMax: match_max ?n? — reads or sets the buffer bound, mirroring
// the match_max variable (§3.1).
func (e *Engine) cmdMatchMax(i *tcl.Interp, args []string) tcl.Result {
	if len(args) > 2 {
		return tcl.Errf(`wrong # args: should be "match_max ?size?"`)
	}
	if len(args) == 1 {
		return tcl.Ok(strconv.Itoa(e.varInt("match_max", DefaultMatchMax)))
	}
	n, err := strconv.Atoi(args[1])
	if err != nil || n <= 0 {
		return tcl.Errf("match_max: expected positive integer, got %q", args[1])
	}
	i.GlobalSet("match_max", args[1])
	if s, _, err := e.currentWithID(); err == nil {
		s.SetMatchMax(n)
	}
	return tcl.Ok("")
}
