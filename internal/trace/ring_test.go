package trace

import (
	"reflect"
	"sync"
	"testing"
)

// mixedEvent is record i of a fixed sequence that mixes sends of three kinds
// with events the census must ignore.
func mixedEvent(i int) Event {
	kinds := []string{"ring.kindA", "ring.kindB", "ring.kindC"}
	if i%4 == 3 {
		return Event{Kind: EvRecv, Object: 2, Peer: 1, Label: kinds[i%3]}
	}
	return Event{Kind: EvSend, Object: 1, Peer: 2, Label: kinds[i%3]}
}

// TestRingKeepsContiguousSuffix feeds a ring three times its capacity and a
// bit: what it holds is exactly the last capacity events, in order, no gap.
func TestRingKeepsContiguousSuffix(t *testing.T) {
	const capacity = 4 * logShardCount
	const records = 3*capacity + 5
	l := NewRing(capacity)
	for i := 0; i < records; i++ {
		l.Record(mixedEvent(i))
	}
	events := l.Events()
	if len(events) != capacity {
		t.Fatalf("len(Events()) = %d, want the capacity %d", len(events), capacity)
	}
	for i, e := range events {
		if want := records - capacity + i + 1; e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d (the last %d of %d, no gap)", i, e.Seq, want, capacity, records)
		}
	}
}

// TestRingBelowCapacityKeepsAll: a ring that has not filled is a complete log.
func TestRingBelowCapacityKeepsAll(t *testing.T) {
	l := NewRing(4 * logShardCount)
	for i := 0; i < 3*logShardCount+1; i++ {
		l.Record(mixedEvent(i))
	}
	events := l.Events()
	if len(events) != 3*logShardCount+1 || events[0].Seq != 1 {
		t.Fatalf("got %d events from #%d, want all %d from #1", len(events), events[0].Seq, 3*logShardCount+1)
	}
}

func TestRingReset(t *testing.T) {
	const capacity = 2 * logShardCount
	l := NewRing(capacity)
	for i := 0; i < 3*capacity; i++ {
		l.Record(mixedEvent(i))
	}
	l.Reset()
	if n, total := len(l.Events()), l.TotalSends(); n != 0 || total != 0 {
		t.Fatalf("after Reset: %d events, %d sends, want none", n, total)
	}
	l.Record(Event{Kind: EvSend, Object: 1, Peer: 2, Label: "ring.kindA"})
	events := l.Events()
	if len(events) != 1 || events[0].Seq != 1 {
		t.Errorf("after Reset and one record: events = %v, want one event with Seq 1", events)
	}
	if census := l.Census(); !reflect.DeepEqual(census, map[string]int{"ring.kindA": 1}) {
		t.Errorf("after Reset and one record: census = %v, want ring.kindA=1", census)
	}
}

// TestCensusIndependentOfRetention: the same records through a log that keeps
// everything and one that keeps almost nothing count the same.
func TestCensusIndependentOfRetention(t *testing.T) {
	full, ring := NewLog(), NewRing(logShardCount)
	const records = 1000
	for i := 0; i < records; i++ {
		full.Record(mixedEvent(i))
		ring.Record(mixedEvent(i))
	}
	if len(full.Events()) != records || len(ring.Events()) != logShardCount {
		t.Fatalf("kept %d and %d events, want %d and %d", len(full.Events()), len(ring.Events()), records, logShardCount)
	}
	if f, r := full.Census(), ring.Census(); !reflect.DeepEqual(f, r) {
		t.Errorf("Census differs: full %v, ring %v", f, r)
	}
	if f, r := full.TotalSends(), ring.TotalSends(); f != r || f != records-records/4 {
		t.Errorf("TotalSends: full %d, ring %d, want %d", f, r, records-records/4)
	}
	for _, k := range []string{"ring.kindA", "ring.kindB", "ring.kindC", "ring.kindNever"} {
		if f, r := full.CountSends(k), ring.CountSends(k); f != r {
			t.Errorf("CountSends(%s): full %d, ring %d", k, f, r)
		}
	}
	if f, r := full.CensusString(), ring.CensusString(); f != r {
		t.Errorf("CensusString: full %q, ring %q", f, r)
	}
}

// TestRingConcurrentRecord: recorders racing each other, the ring's wrap and
// the first sight of their kinds lose no count, and readers still get the
// events in order.
func TestRingConcurrentRecord(t *testing.T) {
	const workers, per, capacity = 8, 50000, 64 * logShardCount
	l := NewRing(capacity)
	kinds := []string{"ring.race0", "ring.race1", "ring.race2", "ring.race3"}
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
	events := l.Events()
	if len(events) != capacity {
		t.Errorf("len(Events()) = %d, want the capacity %d", len(events), capacity)
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Seq >= events[i].Seq {
			t.Fatalf("Events() out of order at %d: #%d then #%d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}
