package trace

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// mixedEvent is record i of a fixed sequence that mixes sends of three kinds
// with events the census must ignore.
func mixedEvent(i int) Event {
	kinds := []string{"mixed.kindA", "mixed.kindB", "mixed.kindC"}
	if i%4 == 3 {
		return Event{Kind: EvRecv, Object: 2, Peer: 1, Label: kinds[i%3]}
	}
	return Event{Kind: EvSend, Object: 1, Peer: 2, Label: kinds[i%3]}
}

func TestRecordAndEvents(t *testing.T) {
	l := NewLog()
	e1 := l.Record(Event{Kind: EvSend, Object: 1, Peer: 2, Action: 1, Label: "Exception"})
	e2 := l.Record(Event{Kind: EvRecv, Object: 2, Peer: 1, Action: 1, Label: "Exception"})
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Errorf("sequence numbers: %d, %d", e1.Seq, e2.Seq)
	}
	events := l.Events()
	if len(events) != 2 {
		t.Fatalf("len(events) = %d", len(events))
	}
	if events[0].Kind != EvSend || events[1].Kind != EvRecv {
		t.Errorf("unexpected events %v", events)
	}
}

func TestCensusCountsOnlySends(t *testing.T) {
	l := NewLog()
	l.Record(Event{Kind: EvSend, Label: "Exception"})
	l.Record(Event{Kind: EvSend, Label: "Exception"})
	l.Record(Event{Kind: EvSend, Label: "ACK"})
	l.Record(Event{Kind: EvRecv, Label: "Exception"})
	l.Record(Event{Kind: EvRaise, Label: "E1"})

	if got := l.CountSends("Exception"); got != 2 {
		t.Errorf("Exception sends = %d, want 2", got)
	}
	if got := l.CountSends("ACK"); got != 1 {
		t.Errorf("ACK sends = %d, want 1", got)
	}
	if got := l.TotalSends(); got != 3 {
		t.Errorf("total sends = %d, want 3", got)
	}
	if s := l.CensusString(); s != "ACK=1 Exception=2" {
		t.Errorf("CensusString = %q", s)
	}
}

// TestReset: a reset log, keeping or census-only, counts and numbers from
// scratch, and stays the kind of log it was.
func TestReset(t *testing.T) {
	checkReset(t, NewLog())
}

// TestRingReset checks Reset on the census-only log, which took the bounded
// ring's place as the log of a server built without a trace.
func TestRingReset(t *testing.T) {
	checkReset(t, NewCensus())
}

// checkReset records into l, resets it, and checks that numbering and census
// start again from scratch.
func checkReset(t *testing.T, l *Log) {
	t.Helper()
	for i := 0; i < 100; i++ {
		l.Record(mixedEvent(i))
	}
	l.Reset()
	if n, total := len(l.Events()), l.TotalSends(); n != 0 || total != 0 {
		t.Fatalf("after Reset: %d events, %d sends, want none", n, total)
	}
	e := l.Record(Event{Kind: EvSend, Object: 1, Peer: 2, Label: "mixed.kindA"})
	wantEvents := 1
	if !l.keep {
		wantEvents = 0
	} else if e.Seq != 1 {
		t.Errorf("seq after reset = %d, want 1", e.Seq)
	}
	if n := len(l.Events()); n != wantEvents {
		t.Errorf("after Reset and one record (keep=%v): %d events, want %d", l.keep, n, wantEvents)
	}
	if census := l.Census(); !reflect.DeepEqual(census, map[string]int{"mixed.kindA": 1}) {
		t.Errorf("after Reset and one record (keep=%v): census = %v, want mixed.kindA=1", l.keep, census)
	}
}

// TestCensusIndependentOfRetention: the same records through a log that keeps
// everything and one that keeps nothing count the same.
func TestCensusIndependentOfRetention(t *testing.T) {
	full, census := NewLog(), NewCensus()
	const records = 1000
	for i := 0; i < records; i++ {
		full.Record(mixedEvent(i))
		if e := census.Record(mixedEvent(i)); e != mixedEvent(i) {
			t.Fatalf("census-only Record returned %v, want the event as given", e)
		}
	}
	if len(full.Events()) != records || len(census.Events()) != 0 || census.Dump() != "" {
		t.Fatalf("kept %d and %d events, want %d and none", len(full.Events()), len(census.Events()), records)
	}
	if f, c := full.Census(), census.Census(); !reflect.DeepEqual(f, c) {
		t.Errorf("Census differs: full %v, census-only %v", f, c)
	}
	if f, c := full.TotalSends(), census.TotalSends(); f != c || f != records-records/4 {
		t.Errorf("TotalSends: full %d, census-only %d, want %d", f, c, records-records/4)
	}
	for _, k := range []string{"mixed.kindA", "mixed.kindB", "mixed.kindC", "mixed.kindNever"} {
		if f, c := full.CountSends(k), census.CountSends(k); f != c {
			t.Errorf("CountSends(%s): full %d, census-only %d", k, f, c)
		}
	}
	if f, c := full.CensusString(), census.CensusString(); f != c {
		t.Errorf("CensusString: full %q, census-only %q", f, c)
	}
}

// TestCensusConcurrentRecord: recorders racing each other and the first sight
// of their kinds lose no count on a census-only log.
func TestCensusConcurrentRecord(t *testing.T) {
	const workers, per = 8, 50000
	l := NewCensus()
	kinds := []string{"census.race0", "census.race1", "census.race2", "census.race3"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(Event{Kind: EvSend, Object: 1, Peer: 2, Label: kinds[(w+i)%len(kinds)]})
			}
		}(w)
	}
	wg.Wait()
	if got := l.TotalSends(); got != workers*per {
		t.Errorf("TotalSends = %d, want %d", got, workers*per)
	}
	for _, k := range kinds {
		if got := l.CountSends(k); got != workers*per/len(kinds) {
			t.Errorf("CountSends(%s) = %d, want %d", k, got, workers*per/len(kinds))
		}
	}
}

func TestFilterKind(t *testing.T) {
	l := NewLog()
	l.Record(Event{Kind: EvRaise, Label: "E1"})
	l.Record(Event{Kind: EvSend, Label: "Exception"})
	l.Record(Event{Kind: EvRaise, Label: "E2"})
	raises := l.FilterKind(EvRaise)
	if len(raises) != 2 || raises[0].Label != "E1" || raises[1].Label != "E2" {
		t.Errorf("FilterKind = %v", raises)
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record(Event{Kind: EvSend, Label: "m"})
			}
		}()
	}
	wg.Wait()
	if got := l.TotalSends(); got != 800 {
		t.Errorf("total = %d, want 800", got)
	}
	// Sequence numbers must be unique and dense.
	seen := make(map[int]bool)
	for _, e := range l.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 3, Kind: EvSend, Object: 1, Peer: 2, Action: 4, Label: "Exception", Detail: "E1"}
	s := e.String()
	for _, want := range []string{"#0003", "send", "O1->O2", "A4", "Exception", "(E1)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	r := Event{Seq: 1, Kind: EvRecv, Object: 2, Peer: 1}
	if !strings.Contains(r.String(), "O2<-O1") {
		t.Errorf("recv rendering: %q", r.String())
	}
	if EventKind(99).String() != "event(99)" {
		t.Errorf("unknown kind rendering: %q", EventKind(99).String())
	}
}

func TestDump(t *testing.T) {
	l := NewLog()
	l.Record(Event{Kind: EvNote, Object: 1, Label: "hello"})
	if !strings.Contains(l.Dump(), "hello") {
		t.Error("Dump should contain event labels")
	}
}

// TestConcurrentRecordOrder: sequence numbers stay dense and unique under
// concurrency, and Events() returns them in order.
func TestConcurrentRecordOrder(t *testing.T) {
	l := NewLog()
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.Record(Event{Kind: EvSend, Label: "Exception"})
			}
		}()
	}
	wg.Wait()

	events := l.Events()
	if len(events) != workers*per {
		t.Fatalf("len(events) = %d, want %d", len(events), workers*per)
	}
	for i, e := range events {
		if e.Seq != i+1 {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if got := l.TotalSends(); got != workers*per {
		t.Errorf("TotalSends = %d, want %d", got, workers*per)
	}
}

// BenchmarkRecordParallel measures recording into a keeping log under
// concurrency.
func BenchmarkRecordParallel(b *testing.B) {
	l := NewLog()
	b.RunParallel(func(pb *testing.PB) {
		e := Event{Kind: EvSend, Object: 1, Peer: 2, Label: "Exception"}
		for pb.Next() {
			l.Record(e)
		}
	})
}

// BenchmarkRecordSerial is the single-goroutine baseline for comparison.
func BenchmarkRecordSerial(b *testing.B) {
	l := NewLog()
	e := Event{Kind: EvSend, Object: 1, Peer: 2, Label: "Exception"}
	for i := 0; i < b.N; i++ {
		l.Record(e)
	}
}
