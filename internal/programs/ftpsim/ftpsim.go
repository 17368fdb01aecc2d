// Package ftpsim simulates the ftp(1) client of §5.6: "ftp has an option
// that disables interactive prompting so that it can be run from a
// script. But it provides no way to take alternative action should an
// error occur." The simulator exposes exactly that interface: an
// interactive command loop (open/ls/get/mget/prompt/bye) over a virtual
// remote file store with injectable transfer failures, and the -i
// behaviour (Interactive=false) that mget's per-file questioning turns
// off — blindly, which is the paper's complaint.
package ftpsim

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/proc"
)

// File is one remote file.
type File struct {
	Name string
	Size int
	// Broken makes every transfer of this file fail mid-way, the error
	// the -i mode has "no way to take alternative action" on.
	Broken bool
}

// Config configures the simulated client+server pair.
type Config struct {
	// Host is the remote system name.
	Host string
	// Files is the remote directory listing.
	Files []File
	// Interactive mirrors ftp's default: mget asks "mget <file>?" per
	// file. False reproduces `ftp -i` ("disables interactive prompting").
	Interactive bool
	// OnRetrieve, when non-nil, is called for each file successfully
	// transferred (the test oracle), before the 226 reply, so a script
	// that has seen the reply also sees the call.
	OnRetrieve func(name string)
}

// New returns the simulated ftp as a spawnable program.
func New(cfg Config) proc.Program {
	host := cfg.Host
	if host == "" {
		host = "ftp.cme.nist.gov" // the paper's own distribution host
	}
	files := make(map[string]File, len(cfg.Files))
	var names []string
	for _, f := range cfg.Files {
		files[f.Name] = f
		names = append(names, f.Name)
	}
	sort.Strings(names)

	return func(stdin io.Reader, stdout io.Writer) error {
		in := newLineReader(stdin)
		connected := false
		interactive := cfg.Interactive

		transfer := func(f File) bool {
			fmt.Fprintf(stdout, "200 PORT command successful.\r\n150 Opening data connection for %s (%d bytes).\r\n", f.Name, f.Size)
			if f.Broken {
				fmt.Fprintf(stdout, "451 %s: transfer aborted: local error in processing.\r\n", f.Name)
				return false
			}
			if cfg.OnRetrieve != nil {
				cfg.OnRetrieve(f.Name)
			}
			fmt.Fprintf(stdout, "226 Transfer complete.\r\nlocal: %s remote: %s\r\n%d bytes received.\r\n",
				f.Name, f.Name, f.Size)
			return true
		}

		for {
			fmt.Fprint(stdout, "ftp> ")
			line, ok := in.readLine()
			if !ok {
				return nil
			}
			fields := strings.Fields(line)
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "open":
				if len(fields) < 2 {
					fmt.Fprint(stdout, "usage: open host\r\n")
					continue
				}
				connected = true
				fmt.Fprintf(stdout, "Connected to %s.\r\n220 %s FTP server ready.\r\nName: ", host, host)
				in.readLine() // user name (anonymous)
				fmt.Fprint(stdout, "331 Guest login ok, send ident as password.\r\nPassword: ")
				in.readLine()
				fmt.Fprint(stdout, "230 Guest login ok, access restrictions apply.\r\n")
			case "ls", "dir":
				if !requireConn(stdout, connected) {
					continue
				}
				fmt.Fprint(stdout, "200 PORT command successful.\r\n150 Opening data connection.\r\n")
				for _, n := range names {
					fmt.Fprintf(stdout, "-rw-r--r--  1 ftp ftp %8d Jun  5 1990 %s\r\n", files[n].Size, n)
				}
				fmt.Fprint(stdout, "226 Transfer complete.\r\n")
			case "prompt":
				interactive = !interactive
				state := "on"
				if !interactive {
					state = "off"
				}
				fmt.Fprintf(stdout, "Interactive mode %s.\r\n", state)
			case "get":
				if !requireConn(stdout, connected) {
					continue
				}
				if len(fields) < 2 {
					fmt.Fprint(stdout, "usage: get file\r\n")
					continue
				}
				f, okf := files[fields[1]]
				if !okf {
					fmt.Fprintf(stdout, "550 %s: No such file or directory.\r\n", fields[1])
					continue
				}
				transfer(f)
			case "mget":
				if !requireConn(stdout, connected) {
					continue
				}
				pat := "*"
				if len(fields) > 1 {
					pat = fields[1]
				}
				for _, n := range names {
					if !globLite(pat, n) {
						continue
					}
					if interactive {
						fmt.Fprintf(stdout, "mget %s? ", n)
						ans, ok := in.readLine()
						if !ok {
							return nil
						}
						if !strings.HasPrefix(strings.ToLower(strings.TrimSpace(ans)), "y") {
							continue
						}
					}
					// In -i mode failures scroll past with no recourse —
					// the loop just continues, exactly like the real client.
					transfer(files[n])
				}
			case "bye", "quit":
				fmt.Fprint(stdout, "221 Goodbye.\r\n")
				return nil
			default:
				fmt.Fprintf(stdout, "?Invalid command %q\r\n", fields[0])
			}
		}
	}
}

func requireConn(w io.Writer, connected bool) bool {
	if !connected {
		fmt.Fprint(w, "Not connected.\r\n")
	}
	return connected
}

// globLite: '*' wildcard only, which is all ftp's mget offered.
func globLite(pat, s string) bool {
	parts := strings.Split(pat, "*")
	if len(parts) == 1 {
		return pat == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		idx := strings.Index(s, p)
		if idx < 0 {
			return false
		}
		s = s[idx+len(p):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

// lineReader reads \n- or \r-terminated lines.
type lineReader struct {
	in        io.Reader
	buf       []byte
	pending   []byte
	lastWasCR bool
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{in: r, buf: make([]byte, 256)}
}

func (l *lineReader) readLine() (string, bool) {
	var sb strings.Builder
	for {
		for len(l.pending) > 0 {
			c := l.pending[0]
			l.pending = l.pending[1:]
			switch c {
			case '\n':
				if l.lastWasCR && sb.Len() == 0 {
					l.lastWasCR = false
					continue
				}
				l.lastWasCR = false
				return sb.String(), true
			case '\r':
				l.lastWasCR = true
				return sb.String(), true
			default:
				l.lastWasCR = false
				sb.WriteByte(c)
			}
		}
		n, err := l.in.Read(l.buf)
		if n > 0 {
			l.pending = append(l.pending, l.buf[:n]...)
			continue
		}
		if err != nil {
			return sb.String(), sb.Len() > 0
		}
	}
}
