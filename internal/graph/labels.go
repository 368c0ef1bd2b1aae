// Package graph provides the streaming graph model used throughout
// timingsubg: labelled vertices, directed timestamped edges, a time-based
// sliding window, and snapshots with adjacency access for baseline
// algorithms that re-search the window contents.
package graph

import (
	"fmt"
	"sync"
)

// Label is an interned label identifier. Vertex labels and edge labels are
// drawn from the same intern table; semantically they live in separate
// namespaces because query and data use them in the same positions only.
type Label int32

// NoLabel is the zero Label, used for unlabelled edges.
const NoLabel Label = 0

// Labels interns label strings to dense Label identifiers so that hot
// matching paths compare integers instead of strings. The zero value is
// ready to use. Labels is safe for concurrent use.
type Labels struct {
	mu    sync.RWMutex
	byStr map[string]Label
	byID  []string
}

// NewLabels returns an empty intern table. ID 0 is reserved for the empty
// label ("").
func NewLabels() *Labels {
	l := &Labels{byStr: make(map[string]Label)}
	l.byStr[""] = 0
	l.byID = append(l.byID, "")
	return l
}

// Intern returns the Label for s, assigning a fresh identifier if s has
// not been seen before.
func (l *Labels) Intern(s string) Label {
	l.mu.RLock()
	id, ok := l.byStr[s]
	l.mu.RUnlock()
	if ok {
		return id
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if id, ok = l.byStr[s]; ok {
		return id
	}
	id = Label(len(l.byID))
	l.byStr[s] = id
	l.byID = append(l.byID, s)
	return id
}

// InternBytes is Intern for a label held as bytes, such as a slice of
// a request line. A label already in the table is found without
// allocating (the map index converts b in place); only a first
// sighting copies b into a string, through Intern.
func (l *Labels) InternBytes(b []byte) Label {
	l.mu.RLock()
	id, ok := l.byStr[string(b)]
	l.mu.RUnlock()
	if ok {
		return id
	}
	return l.Intern(string(b))
}

// Lookup returns the Label for s and whether it exists, without interning.
func (l *Labels) Lookup(s string) (Label, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	id, ok := l.byStr[s]
	return id, ok
}

// String returns the string form of id. Unknown identifiers yield a
// formatted placeholder rather than panicking, which keeps diagnostic
// printing safe.
func (l *Labels) String(id Label) string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if int(id) < len(l.byID) {
		return l.byID[id]
	}
	return fmt.Sprintf("label#%d", int32(id))
}

// Strings returns every interned label in ID order (index i is the
// string of Label i, starting with the reserved empty label). Interning
// the returned slice in order into a fresh table reproduces the same
// IDs — the durability contract serving layers rely on, since logs and
// checkpoints store IDs, not strings.
func (l *Labels) Strings() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]string(nil), l.byID...)
}

// Len reports how many labels have been interned (including the reserved
// empty label).
func (l *Labels) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byID)
}
