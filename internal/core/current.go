package core

import (
	"timingsubg/internal/explist"
	"timingsubg/internal/match"
)

// CurrentMatches enumerates the complete matches standing in the current
// window — the contents of the expansion list's last item (Ω(Q)), i.e.
// matches that were reported and have not yet expired. The callback
// receives scratch; Clone to retain. Call between edge arrivals, as the
// paper's model reads answers.
func (e *Engine) CurrentMatches(fn func(*match.Match) bool) {
	if e.K() == 1 {
		last := e.subs[0].Depth()
		e.subs[0].Each(last, func(_ explist.Handle, m *match.Match) bool {
			return fn(m)
		})
		return
	}
	e.global.Each(e.K(), func(_ explist.Handle, m *match.Match) bool {
		return fn(m)
	})
}

// CurrentMatchCount returns the number of matches standing in the
// current window.
func (e *Engine) CurrentMatchCount() int {
	if e.K() == 1 {
		return e.subs[0].Count(e.subs[0].Depth())
	}
	return e.global.Count(e.K())
}
