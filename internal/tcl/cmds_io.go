package tcl

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

func registerIOCommands(i *Interp) {
	i.Register("puts", cmdPuts)
	i.Register("exec", cmdExec)
	i.Register("source", cmdSource)
	i.Register("exit", cmdExit)
	i.Register("pwd", cmdPwd)
	i.Register("cd", cmdCd)
	i.Register("time", cmdTime)
	i.Register("gets", cmdGets)
	i.Register("pid", cmdPid)
}

func cmdPuts(i *Interp, args []string) Result {
	a := args[1:]
	newline := true
	if len(a) > 0 && a[0] == "-nonewline" {
		newline = false
		a = a[1:]
	}
	// Accept the `puts stdout msg` / `puts stderr msg` channel forms.
	w := i.Stdout
	if len(a) == 2 {
		switch a[0] {
		case "stdout":
			a = a[1:]
		case "stderr":
			w = i.Stderr
			a = a[1:]
		default:
			return Errf("can not find channel named %q", a[0])
		}
	}
	if len(a) != 1 {
		return Errf(`wrong # args: should be "puts ?-nonewline? ?channelId? string"`)
	}
	if newline {
		fmt.Fprintln(w, a[0])
	} else {
		fmt.Fprint(w, a[0])
	}
	return Ok("")
}

// cmdExec runs a UNIX program, waits for it, and returns its standard
// output with a single trailing newline removed, like Tcl's exec. This is
// the paper's "UNIX programs may be called" facility (e.g. `exec sleep 4`
// in callback.exp). There is no pipeline syntax; expect spawns interactive
// pipelines itself.
func cmdExec(i *Interp, args []string) Result {
	if r := arity(args, 1, -1, "arg ?arg ...?"); r.Code != OK {
		return r
	}
	cmd := exec.Command(args[1], args[2:]...)
	out, err := cmd.Output()
	text := strings.TrimSuffix(string(out), "\n")
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			msg := strings.TrimSpace(string(ee.Stderr))
			if msg == "" {
				msg = fmt.Sprintf("child process exited abnormally (status %d)", ee.ExitCode())
			}
			return Errf("%s", msg)
		}
		return Errf("couldn't execute %q: %v", args[1], err)
	}
	return Ok(text)
}

func cmdSource(i *Interp, args []string) Result {
	if r := arity(args, 1, 1, "fileName"); r.Code != OK {
		return r
	}
	data, err := os.ReadFile(args[1])
	if err != nil {
		return Errf("couldn't read file %q: %v", args[1], err)
	}
	res := i.EvalScript(string(data))
	if res.Code == Return {
		return Ok(res.Value)
	}
	return res
}

func cmdExit(i *Interp, args []string) Result {
	if r := arity(args, 0, 1, "?returnCode?"); r.Code != OK {
		return r
	}
	code := 0
	if len(args) == 2 {
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return Errf("expected integer but got %q", args[1])
		}
		code = n
	}
	if i.exitHandler != nil {
		i.exitHandler(code)
		// If the handler returns, surface a distinctive error so tests can
		// observe exit without killing the test process.
		return Errf("exit %d", code)
	}
	os.Exit(code)
	return Ok("") // unreachable
}

func cmdPwd(i *Interp, args []string) Result {
	if r := arity(args, 0, 0, ""); r.Code != OK {
		return r
	}
	dir, err := os.Getwd()
	if err != nil {
		return Errf("%v", err)
	}
	return Ok(dir)
}

func cmdCd(i *Interp, args []string) Result {
	if r := arity(args, 0, 1, "?dirName?"); r.Code != OK {
		return r
	}
	dir := os.Getenv("HOME")
	if len(args) == 2 {
		dir = args[1]
	}
	if err := os.Chdir(dir); err != nil {
		return Errf("couldn't change working directory to %q: %v", dir, err)
	}
	return Ok("")
}

// cmdTime evaluates a script count times and reports microseconds per
// iteration, like Tcl's time command.
func cmdTime(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "command ?count?"); r.Code != OK {
		return r
	}
	count := 1
	if len(args) == 3 {
		n, err := strconv.Atoi(args[2])
		if err != nil || n <= 0 {
			return Errf("expected positive integer but got %q", args[2])
		}
		count = n
	}
	start := time.Now()
	for k := 0; k < count; k++ {
		if res := i.EvalScript(args[1]); res.Code != OK && res.Code != Return {
			return res
		}
	}
	per := time.Since(start).Microseconds() / int64(count)
	return Ok(fmt.Sprintf("%d microseconds per iteration", per))
}

// cmdGets reads one line from standard input: `gets stdin ?varName?`.
func cmdGets(i *Interp, args []string) Result {
	if r := arity(args, 1, 2, "channelId ?varName?"); r.Code != OK {
		return r
	}
	if args[1] != "stdin" {
		return Errf("can not find channel named %q", args[1])
	}
	line, err := readLine(os.Stdin)
	if err != nil {
		if len(args) == 3 {
			if w := i.setVar(args[2], ""); w.Code != OK {
				return w
			}
			return Ok("-1")
		}
		return Errf("error reading stdin: %v", err)
	}
	if len(args) == 3 {
		if w := i.setVar(args[2], line); w.Code != OK {
			return w
		}
		return Ok(strconv.Itoa(len(line)))
	}
	return Ok(line)
}

func readLine(f *os.File) (string, error) {
	var sb strings.Builder
	buf := make([]byte, 1)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			if buf[0] == '\n' {
				return sb.String(), nil
			}
			sb.WriteByte(buf[0])
		}
		if err != nil {
			if sb.Len() > 0 {
				return sb.String(), nil
			}
			return "", err
		}
	}
}

func cmdPid(i *Interp, args []string) Result {
	if r := arity(args, 0, 0, ""); r.Code != OK {
		return r
	}
	return Ok(strconv.Itoa(os.Getpid()))
}
