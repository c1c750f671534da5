// Package trace provides an event log and message census used by tests,
// benchmarks and the experiment harness to observe protocol executions.
//
// The paper's evaluation (§4.4) is a message-count analysis; the census in
// this package is what the reproduction measures against the closed-form
// predictions such as (N-1)(2P+3Q+1).
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ident"
)

// EventKind classifies a trace event.
type EventKind int

// Event kinds recorded by the runtime.
const (
	// EvSend records a protocol message leaving an object.
	EvSend EventKind = iota + 1
	// EvRecv records a protocol message being processed by an object.
	EvRecv
	// EvRaise records a local exception raise.
	EvRaise
	// EvState records a protocol state transition (N/X/S/R).
	EvState
	// EvAbort records execution of an abortion handler.
	EvAbort
	// EvHandler records invocation of a resolved exception handler.
	EvHandler
	// EvEnter records an object entering an action.
	EvEnter
	// EvLeave records an object leaving an action.
	EvLeave
	// EvCommitChosen records the chooser resolving and committing.
	EvCommitChosen
	// EvNote records free-form runtime notes.
	EvNote
)

var eventKindNames = map[EventKind]string{
	EvSend:         "send",
	EvRecv:         "recv",
	EvRaise:        "raise",
	EvState:        "state",
	EvAbort:        "abort",
	EvHandler:      "handler",
	EvEnter:        "enter",
	EvLeave:        "leave",
	EvCommitChosen: "commit-chosen",
	EvNote:         "note",
}

// String returns a readable name for the event kind.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one recorded occurrence. Seq is a logical timestamp assigned at
// record time by whoever keeps the event (a Log, or an action's record),
// giving a total order of what that keeper holds consistent with real time.
type Event struct {
	Seq    int
	Kind   EventKind
	Object ident.ObjectID
	Peer   ident.ObjectID // message peer for send/recv, otherwise zero
	Action ident.ActionID
	Label  string // message kind name, exception name, state name, ...
	Detail string
}

// String renders the event in a compact single-line form.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%04d %-7s %s", e.Seq, e.Kind, e.Object)
	if e.Kind == EvSend {
		fmt.Fprintf(&b, "->%s", e.Peer)
	}
	if e.Kind == EvRecv {
		fmt.Fprintf(&b, "<-%s", e.Peer)
	}
	if e.Action != 0 {
		fmt.Fprintf(&b, " %s", e.Action)
	}
	if e.Label != "" {
		fmt.Fprintf(&b, " %s", e.Label)
	}
	if e.Detail != "" {
		fmt.Fprintf(&b, " (%s)", e.Detail)
	}
	return b.String()
}

// kindInterner maps message-kind names to small dense indices, process-wide.
// The kind universe is tiny and closed (the Kind* constants plus whatever a
// test invents), so a log's census is a slab of counters indexed by kind
// instead of a map. Lookups read an immutable snapshot and take no lock; a
// name seen for the first time copies the snapshot under mu and publishes the
// copy. External census APIs stay string-keyed; indices never escape this
// package.
var kindInterner struct {
	mu    sync.Mutex // serialises first sights
	kinds atomic.Pointer[kindTable]
}

func init() { kindInterner.kinds.Store(&kindTable{index: map[string]int{}}) }

// kindTable is one immutable snapshot of the interner.
type kindTable struct {
	index map[string]int
	names []string
}

// lookupKind returns the index of a kind name without allocating one.
//
//caa:noalloc
func lookupKind(name string) (int, bool) {
	i, ok := kindInterner.kinds.Load().index[name]
	return i, ok
}

// internKind returns the dense index for a kind name, allocating one on
// first sight.
func internKind(name string) int {
	if i, ok := lookupKind(name); ok {
		return i
	}
	kindInterner.mu.Lock()
	defer kindInterner.mu.Unlock()
	if i, ok := lookupKind(name); ok {
		return i // interned while this call waited for the lock
	}
	old := kindInterner.kinds.Load()
	next := &kindTable{
		index: make(map[string]int, len(old.index)+1),
		names: append(old.names[:len(old.names):len(old.names)], name),
	}
	for k, i := range old.index {
		next.index[k] = i
	}
	next.index[name] = len(old.names)
	kindInterner.kinds.Store(next)
	return len(old.names)
}

// kindName returns the name for an interned index.
func kindName(i int) string {
	return kindInterner.kinds.Load().names[i]
}

// Log is a concurrency-safe message census with, optionally, an event
// history. What it counts and what it keeps are separate: the census is one
// atomic counter per message kind and never looks at an event, so a count is
// the same whether or not the log keeps the event behind it.
//
// A log from NewLog keeps every event, in the order they were recorded; one
// from NewCensus keeps none. The zero value is not usable.
type Log struct {
	//protolint:allow resetcheck whether the log keeps events is what kind of log this is, not recorded state: Reset empties a history, it does not end it
	keep bool

	// sends is the census: one counter per interned kind index, published as
	// an immutable slab of pointers so that counting takes no lock. A kind
	// this log has not counted before swaps in a longer slab; the counters
	// themselves are shared between the old slab and the new, so an Add
	// racing the growth is not lost.
	sends atomic.Pointer[[]*atomic.Int64]

	mu     sync.Mutex
	events []Event // kept events; events[i].Seq == i+1
}

// NewLog returns an empty log that keeps every event recorded into it: the
// log for anything that reads a complete history (CheckFIFO,
// CheckHandlersAgree, Dump).
func NewLog() *Log {
	return &Log{keep: true}
}

// NewCensus returns an empty log that counts sends and keeps no event:
// Events, FilterKind and Dump find nothing in it, and recording takes no
// lock.
func NewCensus() *Log {
	return &Log{}
}

// Record counts a send event in the census under its Label. A log that
// keeps events stores e with the next sequence number and returns it as
// stored; a census-only log returns e as given.
//
//caa:noalloc
func (l *Log) Record(e Event) Event {
	if e.Kind == EvSend {
		l.countSend(e.Label)
	}
	if !l.keep {
		return e
	}
	l.mu.Lock()
	e.Seq = len(l.events) + 1
	l.events = append(l.events, e)
	l.mu.Unlock()
	return e
}

// countSend adds one to the census counter of a message kind. A kind this
// process has interned and this log has counted before takes no lock.
//
//caa:noalloc
func (l *Log) countSend(kind string) {
	idx := internKind(kind)
	if cs := l.counters(); idx < len(cs) {
		cs[idx].Add(1)
		return
	}
	l.growSends(idx).Add(1)
}

// growSends extends the census slab to cover kind index idx and returns that
// kind's counter.
func (l *Log) growSends(idx int) *atomic.Int64 {
	for {
		p := l.sends.Load()
		var old []*atomic.Int64
		if p != nil {
			old = *p
		}
		if idx < len(old) {
			return old[idx] // another recorder grew it first
		}
		fresh := make([]atomic.Int64, idx+1-len(old))
		grown := make([]*atomic.Int64, len(old), idx+1)
		copy(grown, old)
		for i := range fresh {
			grown = append(grown, &fresh[i])
		}
		if l.sends.CompareAndSwap(p, &grown) {
			return grown[idx]
		}
	}
}

// counters returns the current census slab, indexed by interned kind.
func (l *Log) counters() []*atomic.Int64 {
	if p := l.sends.Load(); p != nil {
		return *p
	}
	return nil
}

// Events returns a copy of the events the log keeps, in sequence order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.events)
}

// Census returns a copy of the send census keyed by message-kind name.
func (l *Log) Census() map[string]int {
	out := make(map[string]int)
	for idx, c := range l.counters() {
		if v := c.Load(); v != 0 {
			out[kindName(idx)] = int(v)
		}
	}
	return out
}

// TotalSends returns the total number of send events recorded.
func (l *Log) TotalSends() int {
	total := 0
	for _, c := range l.counters() {
		total += int(c.Load())
	}
	return total
}

// CountSends returns the number of send events recorded for one kind.
func (l *Log) CountSends(kind string) int {
	idx, ok := lookupKind(kind)
	if cs := l.counters(); ok && idx < len(cs) {
		return int(cs[idx].Load())
	}
	return 0 // never interned, or never counted here
}

// Reset clears all events, dropping their storage, and zeroes the census.
// Interned kind indices are process-wide and survive resets.
func (l *Log) Reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
	for _, c := range l.counters() {
		c.Store(0)
	}
}

// FilterKind returns the recorded events of the given kind, in order.
func (l *Log) FilterKind(kind EventKind) []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// CensusString renders the census as "kind=N" pairs sorted by kind name,
// suitable for test failure messages and the experiment tables.
func (l *Log) CensusString() string {
	census := l.Census()
	keys := make([]string, 0, len(census))
	for k := range census {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, census[k]))
	}
	return strings.Join(parts, " ")
}

// Dump renders the whole log, one event per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, e := range l.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
