package core

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/vt"
)

// Screen support: §8 of the paper asks "If expect had a built-in terminal
// emulator, could one look for 'regions' of character graphics?" With
// screen tracking enabled, a session maintains a vt.Screen from the
// process output in parallel with the byte-stream match buffer, and
// ExpectScreen waits on predicates over the rendered display — rows,
// rectangles, cursor position — instead of raw escape sequences.

// Screen returns the session's terminal emulation, or nil when screen
// tracking was not enabled (Config.ScreenRows/ScreenCols).
func (s *Session) Screen() *vt.Screen {
	return s.screen
}

// ErrNoScreen is returned by ExpectScreen on a session without screen
// tracking.
var errNoScreen = &screenError{"expect: session has no screen (set Config.ScreenRows/Cols)"}

type screenError struct{ msg string }

func (e *screenError) Error() string { return e.msg }

// ExpectScreen waits until pred holds over the rendered screen, the
// deadline d passes (d < 0 waits forever), or the process closes its
// output. Unlike Expect it consumes nothing from the match buffer: the
// screen is a view, not a stream.
func (s *Session) ExpectScreen(d time.Duration, pred func(*vt.Screen) bool) error {
	if s.screen == nil {
		return errNoScreen
	}
	var deadline time.Time
	if d >= 0 {
		deadline = time.Now().Add(d)
	}
	// Registered before the first look, so output or EOF arriving between
	// a look and the wait still wakes it (the Select discipline).
	wake := make(chan struct{}, 1)
	s.addWatcher(wake)
	defer s.removeWatcher(wake)
	for {
		s.mu.Lock()
		stop := s.prof.Start(metrics.PhaseMatch)
		ok := pred(s.screen)
		stop()
		eof := s.eof
		s.mu.Unlock()
		if ok {
			return nil
		}
		if eof {
			return ErrEOF
		}
		if deadline.IsZero() {
			<-wake
			continue
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return ErrTimeout
		}
		t := time.NewTimer(remaining)
		select {
		case <-wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// ExpectScreenGlob waits until the full rendered screen matches the glob
// pattern (anchored, like stream patterns — wrap with stars).
func (s *Session) ExpectScreenGlob(d time.Duration, glob string) error {
	return s.ExpectScreen(d, func(sc *vt.Screen) bool {
		return pattern.Match(glob, sc.Text())
	})
}

// ExpectScreenRegion waits until the rectangle (r0,c0)–(r1,c1) matches
// the glob pattern — the §8 "regions of character graphics" primitive.
func (s *Session) ExpectScreenRegion(d time.Duration, r0, c0, r1, c1 int, glob string) error {
	return s.ExpectScreen(d, func(sc *vt.Screen) bool {
		return pattern.Match(glob, sc.Region(r0, c0, r1, c1))
	})
}
