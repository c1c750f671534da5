package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/protocol"
)

func sampleMsg() protocol.Msg {
	return protocol.Msg{
		Kind:   protocol.KindException,
		Action: 3,
		Path:   []ident.ActionID{1, 2, 3},
		From:   7,
		Exc:    "left_engine_exception",
	}
}

func TestRoundTrip(t *testing.T) {
	tests := []protocol.Msg{
		sampleMsg(),
		{Kind: protocol.KindAck, Action: 1, From: 2},
		{Kind: protocol.KindHaveNested, Action: 9, Path: []ident.ActionID{9}, From: 1},
		{Kind: protocol.KindNestedCompleted, Action: 2, Path: []ident.ActionID{1, 2}, From: 3, Exc: ""},
		{Kind: protocol.KindCommit, Action: 1, Path: []ident.ActionID{1}, From: 4, Exc: "root"},
	}
	for _, give := range tests {
		b, err := Encode(give)
		if err != nil {
			t.Fatalf("encode %v: %v", give, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("decode %v: %v", give, err)
		}
		if !reflect.DeepEqual(give, got) {
			t.Errorf("round trip: give %+v, got %+v", give, got)
		}
	}
}

func TestEncodeUnknownKind(t *testing.T) {
	if _, err := Encode(protocol.Msg{Kind: "Nonsense"}); !errors.Is(err, ErrBadKind) {
		t.Errorf("want ErrBadKind, got %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := Encode(sampleMsg())
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		give []byte
		want error
	}{
		{name: "empty", give: nil, want: ErrShortMessage},
		{name: "one byte", give: []byte{Format}, want: ErrShortMessage},
		{name: "bad version", give: []byte{99, 1, 0}, want: ErrBadFormat},
		{name: "bad kind", give: []byte{Format, 99, 0}, want: ErrBadKind},
		{name: "truncated", give: good[:len(good)-3], want: ErrShortMessage},
		{name: "trailing", give: append(append([]byte{}, good...), 0xFF), want: ErrTrailingBytes},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.give); !errors.Is(err, tt.want) {
				t.Errorf("Decode(%v) err = %v, want %v", tt.give, err, tt.want)
			}
		})
	}
}

// TestDecodeHostileLengths: length fields larger than the payload must fail
// cleanly rather than allocate or panic.
func TestDecodeHostileLengths(t *testing.T) {
	// Claim a path of 2^40 entries.
	hostile := []byte{Format, 1 /* Exception */, 2 /* action=1 */}
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20) // huge uvarint
	if _, err := Decode(hostile); !errors.Is(err, ErrShortMessage) {
		t.Errorf("hostile path length: %v", err)
	}
}

// TestRoundTripProperty: random messages survive the round trip bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	kinds := []string{
		protocol.KindException, protocol.KindHaveNested,
		protocol.KindNestedCompleted, protocol.KindAck, protocol.KindCommit,
	}
	rng := rand.New(rand.NewSource(11))
	f := func(action int32, from int16, excRaw []byte, pathLen uint8) bool {
		m := protocol.Msg{
			Kind:   kinds[rng.Intn(len(kinds))],
			Action: ident.ActionID(action),
			From:   ident.ObjectID(from),
			Exc:    string(excRaw),
		}
		for i := 0; i < int(pathLen%16); i++ {
			m.Path = append(m.Path, ident.ActionID(rng.Intn(1000)))
		}
		b, err := Encode(m)
		if err != nil {
			return false
		}
		// Encode sizes its buffer with Size; both must be exact, negative
		// identifiers and multi-byte lengths included.
		if len(b) != Size(m) || cap(b) != len(b) {
			t.Errorf("%+v: Size = %d, encoded %d bytes in a buffer of %d", m, Size(m), len(b), cap(b))
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGobRoundTrip(t *testing.T) {
	give := sampleMsg()
	b, err := EncodeGob(give)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGob(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(give, got) {
		t.Errorf("gob round trip: %+v vs %+v", give, got)
	}
}

func TestBinarySmallerThanGob(t *testing.T) {
	m := sampleMsg()
	bin, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	g, err := EncodeGob(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(g) {
		t.Errorf("binary %dB not smaller than gob %dB", len(bin), len(g))
	}
}

func BenchmarkEncodeBinary(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBinary(b *testing.B) {
	m := sampleMsg()
	buf, err := Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeGob(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeGob(m); err != nil {
			b.Fatal(err)
		}
	}
}
