package timingsubg

import "io"

// fastStatser is the counter-only snapshot fast path: everything in
// Stats except the fields that walk partial-match state.
type fastStatser interface {
	statsFast() Stats
}

// FastStats returns eng's counter-only snapshot: Stats with the fields
// that walk partial-match state (PartialMatches, SpaceBytes) left
// zero. It is the cheap sampler for frequent scrapes (GET /metrics);
// engines that do not implement the fast path fall back to the full
// Stats.
func FastStats(eng Engine) Stats {
	if fs, ok := eng.(fastStatser); ok {
		return fs.statsFast()
	}
	return eng.Stats()
}

// stateWriter is the diagnostic dump behind WriteState.
type stateWriter interface {
	writeState(w io.Writer)
}

// WriteState dumps eng's live expansion-list populations and counters
// to w for diagnostics (tsrun -state). Call while no feed is in flight.
// Only single-query engines carry one expansion-list state to dump; for
// a fleet WriteState writes nothing.
func WriteState(w io.Writer, eng Engine) {
	if sw, ok := eng.(stateWriter); ok {
		sw.writeState(w)
	}
}
