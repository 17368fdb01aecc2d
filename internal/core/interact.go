package core

import (
	"io"
)

// InteractReason says why an Interact call ended.
type InteractReason int

// Interact termination reasons.
const (
	// InteractEOF: the process exited (interact "will detect when the
	// current process exits and implicitly do a close", §3.2).
	InteractEOF InteractReason = iota
	// InteractUserEOF: the user's input stream closed.
	InteractUserEOF
	// InteractReturn: the escape handler asked interact to return,
	// optionally with a result value (§3.1's `return` command).
	InteractReturn
)

func (r InteractReason) String() string {
	switch r {
	case InteractEOF:
		return "process-eof"
	case InteractUserEOF:
		return "user-eof"
	case InteractReturn:
		return "return"
	default:
		return "unknown"
	}
}

// InteractOptions configures an Interact call.
type InteractOptions struct {
	// UserIn and UserOut are the user's terminal. UserIn is read a byte at
	// a time; during interact every character is passed through to the
	// process (job control characters included, §7.3), except Escape.
	UserIn  io.Reader
	UserOut io.Writer
	// Escape, when non-zero, is the escape character: seeing it suspends
	// pass-through and calls OnEscape.
	Escape byte
	// OnEscape is invoked when Escape is typed. It may run arbitrary
	// commands (the expect CLI runs an interpreter loop here), reading
	// further user input — including any type-ahead that followed the
	// escape character — from the provided reader. Returning resume=true
	// continues the interaction; resume=false ends it with InteractReturn
	// and the given result value. A nil OnEscape with a non-zero Escape
	// ends the interaction immediately with an empty result.
	OnEscape func(userIn io.Reader) (resume bool, result string)
}

// InteractOutcome reports how an interaction ended.
type InteractOutcome struct {
	Reason InteractReason
	Result string
}

// Interact gives the user direct control of the process (Figure 4): user
// keystrokes flow to the process, and the process's combined stdout/stderr
// flows back to the user, until the process exits, the user's input
// closes, or the escape character is pressed and the handler returns
// control to the script.
func (s *Session) Interact(opt InteractOptions) (*InteractOutcome, error) {
	if opt.UserOut == nil {
		opt.UserOut = io.Discard
	}

	// Output side: drain the match buffer to the user as it fills. The
	// watcher is registered before the first look, so output or EOF
	// arriving between a look and the wait still wakes the drain (the
	// Select discipline). stopCh is closed under s.mu, and the drain
	// checks it under s.mu before each take, so once stopDrain holds the
	// lock no further output is taken from the script's next expect.
	wake := make(chan struct{}, 1)
	s.addWatcher(wake, nil)
	stopCh := make(chan struct{})
	drainDone := make(chan struct{})
	go func() {
		defer close(drainDone)
		defer s.removeWatcher(wake)
		for {
			s.mu.Lock()
			select {
			case <-stopCh:
				s.mu.Unlock()
				return
			default:
			}
			// take copies: the write below happens after unlock, while the
			// ingest side may append into the same backing array.
			chunk := s.mb.take()
			eof := s.eof
			s.mu.Unlock()
			if len(chunk) > 0 {
				if _, err := opt.UserOut.Write(chunk); err != nil {
					return
				}
			}
			if eof {
				return
			}
			select {
			case <-wake:
			case <-stopCh:
				return
			}
		}
	}()
	stopDrain := func() {
		s.mu.Lock()
		close(stopCh)
		s.mu.Unlock()
		<-drainDone
	}

	// Input side: a single reader goroutine owns the user stream and feeds
	// a channel. Both the pass-through loop and the escape handler consume
	// from that channel (the handler through a chanByteReader), so escape
	// mode never races pass-through for keystrokes. If the interaction
	// ends while the user types nothing, the goroutine stays blocked in
	// Read until the stream produces one more byte or closes; that byte
	// is discarded — mirroring the original's outstanding terminal read.
	inputCh := make(chan inputChunk)
	inputAbort := make(chan struct{})
	if opt.UserIn != nil {
		go func() {
			for {
				buf := make([]byte, 256)
				n, err := opt.UserIn.Read(buf)
				select {
				case inputCh <- inputChunk{buf[:n], err}:
					if err != nil {
						return
					}
				case <-inputAbort:
					return
				}
			}
		}()
	}
	defer close(inputAbort)
	escReader := &chanByteReader{ch: inputCh}

	for {
		var data []byte
		var inErr error
		select {
		case <-drainDone:
			// Process output finished: the process exited. Implicit close.
			s.Close()
			return &InteractOutcome{Reason: InteractEOF}, nil
		case in := <-inputCh:
			data, inErr = in.b, in.err
		}
		for len(data) > 0 {
			if opt.Escape != 0 {
				if idx := indexByte(data, opt.Escape); idx >= 0 {
					if idx > 0 {
						if err := s.SendBytes(data[:idx]); err != nil {
							stopDrain()
							return nil, err
						}
					}
					// Type-ahead past the escape goes to the handler.
					escReader.pending = data[idx+1:]
					resume := false
					result := ""
					if opt.OnEscape != nil {
						resume, result = opt.OnEscape(escReader)
					}
					if !resume {
						stopDrain()
						return &InteractOutcome{Reason: InteractReturn, Result: result}, nil
					}
					// Unconsumed handler input returns to pass-through.
					data = escReader.pending
					escReader.pending = nil
					if escReader.sawEOF {
						inErr = io.EOF
					}
					continue
				}
			}
			if err := s.SendBytes(data); err != nil {
				stopDrain()
				return nil, err
			}
			break
		}
		if inErr != nil {
			stopDrain()
			return &InteractOutcome{Reason: InteractUserEOF}, nil
		}
	}
}

type inputChunk struct {
	b   []byte
	err error
}

// chanByteReader adapts the interact input channel to io.Reader for the
// escape handler, honoring bytes already pulled from the channel.
type chanByteReader struct {
	ch      chan inputChunk
	pending []byte
	sawEOF  bool
}

func (r *chanByteReader) Read(p []byte) (int, error) {
	for len(r.pending) == 0 {
		if r.sawEOF {
			return 0, io.EOF
		}
		in, ok := <-r.ch
		if !ok {
			r.sawEOF = true
			return 0, io.EOF
		}
		r.pending = in.b
		if in.err != nil {
			r.sawEOF = true
		}
	}
	n := copy(p, r.pending)
	r.pending = r.pending[n:]
	return n, nil
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}
