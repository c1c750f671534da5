package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ident"
)

// referenceDecode is the decoder Decode replaced: a bytes.Reader walked with
// binary.ReadVarint, kind and payload copied out. It stays here as the
// oracle: whatever the sub-slicing, interning decoder returns must be what
// this one returns.
func referenceDecode(b []byte) (Frame, bool) {
	var f Frame
	if len(b) < 2 || b[0] != Version {
		return f, false
	}
	f.StringPayload = b[1]&flagStringPayload != 0
	r := bytes.NewReader(b[2:])
	from, err := binary.ReadVarint(r)
	if err != nil {
		return f, false
	}
	to, err := binary.ReadVarint(r)
	if err != nil {
		return f, false
	}
	f.From, f.To = ident.ObjectID(from), ident.ObjectID(to)
	if b[1]&flagAction != 0 {
		action, err := binary.ReadVarint(r)
		if err != nil {
			return f, false
		}
		f.Action = ident.ActionID(action)
	}
	kind, ok := referenceField(r)
	if !ok {
		return f, false
	}
	f.Kind = string(kind)
	if f.Payload, ok = referenceField(r); !ok {
		return f, false
	}
	return f, r.Len() == 0
}

// referenceField reads one length-prefixed field into a copy (nil when empty).
func referenceField(r *bytes.Reader) ([]byte, bool) {
	n, err := binary.ReadUvarint(r)
	if err != nil || n > uint64(r.Len()) {
		return nil, false
	}
	if n == 0 {
		return nil, true
	}
	p := make([]byte, n)
	_, err = io.ReadFull(r, p)
	return p, err == nil
}

func checkAgainstReference(t *testing.T, body []byte) {
	t.Helper()
	want, wantOK := referenceDecode(body)
	got, err := Decode(append([]byte(nil), body...))
	if (err == nil) != wantOK {
		t.Fatalf("body %x: Decode err = %v, reference accepted = %v", body, err, wantOK)
	}
	if wantOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %x:\n got %+v\nwant %+v", body, got, want)
	}
}

// TestDecodeMatchesReference replays the inputs the fuzz-style tests use
// (random soup, and a valid frame with one to three bits flipped) through
// both decoders.
func TestDecodeMatchesReference(t *testing.T) {
	if err := quick.Check(func(b []byte) bool { checkAgainstReference(t, b); return true },
		&quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, f := range []Frame{
		sample(),
		{From: 2, To: 5, Kind: "Exception", Action: 77, Payload: []byte{1, 1, 2, 0, 6, 5, 'E', '1'}},
		{From: 9, To: 8, Kind: "group.envelope", Payload: []byte("text"), StringPayload: true},
		{From: 1, To: 2},
	} {
		full, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		base := full[headerSize:]
		checkAgainstReference(t, base)
		rng := rand.New(rand.NewSource(29))
		for i := 0; i < 5000; i++ {
			mutated := append([]byte(nil), base...)
			for j := 0; j < 1+rng.Intn(3); j++ {
				mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
			}
			checkAgainstReference(t, mutated)
		}
	}
}
