package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/wire/frame"
)

// referenceDecode is the decoder Decode replaced: a bytes.Reader walked with
// binary.ReadVarint and the kind looked up in a map. It stays here as the
// oracle for the slice-walking decoder.
func referenceDecode(b []byte) (protocol.Msg, bool) {
	kinds := map[byte]string{
		1: protocol.KindException,
		2: protocol.KindHaveNested,
		3: protocol.KindNestedCompleted,
		4: protocol.KindAck,
		5: protocol.KindCommit,
	}
	var m protocol.Msg
	if len(b) < 2 || b[0] != Format || kinds[b[1]] == "" {
		return m, false
	}
	m.Kind = kinds[b[1]]
	r := bytes.NewReader(b[2:])
	action, err := binary.ReadVarint(r)
	if err != nil {
		return m, false
	}
	m.Action = ident.ActionID(action)
	pathLen, err := binary.ReadUvarint(r)
	if err != nil || pathLen > uint64(r.Len()) {
		return m, false
	}
	if pathLen > 0 {
		m.Path = make([]ident.ActionID, pathLen)
		for i := range m.Path {
			v, err := binary.ReadVarint(r)
			if err != nil {
				return m, false
			}
			m.Path[i] = ident.ActionID(v)
		}
	}
	from, err := binary.ReadVarint(r)
	if err != nil {
		return m, false
	}
	m.From = ident.ObjectID(from)
	excLen, err := binary.ReadUvarint(r)
	if err != nil || excLen > uint64(r.Len()) {
		return m, false
	}
	exc := make([]byte, excLen)
	_, _ = r.Read(exc)
	m.Exc = string(exc)
	return m, r.Len() == 0
}

func checkAgainstReference(t *testing.T, b []byte) {
	t.Helper()
	want, wantOK := referenceDecode(b)
	got, err := Decode(b)
	if (err == nil) != wantOK {
		t.Fatalf("%x: Decode err = %v, reference accepted = %v", b, err, wantOK)
	}
	if wantOK && !reflect.DeepEqual(got, want) {
		t.Fatalf("%x:\n got %+v\nwant %+v", b, got, want)
	}
}

// TestDecodeMatchesReference replays the inputs the fuzz-style tests use
// (random soup, and valid messages with one to three bits flipped) through
// both decoders.
func TestDecodeMatchesReference(t *testing.T) {
	if err := quick.Check(func(b []byte) bool { checkAgainstReference(t, b); return true },
		&quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, m := range []protocol.Msg{
		sampleMsg(),
		{Kind: protocol.KindAck, Action: 1, From: 2},
		{Kind: protocol.KindCommit, Action: -40000, Path: []ident.ActionID{1, -2, 300}, From: -4, Exc: "root"},
	} {
		base, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, base)
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 5000; i++ {
			mutated := append([]byte(nil), base...)
			for j := 0; j < 1+rng.Intn(3); j++ {
				mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
			}
			checkAgainstReference(t, mutated)
		}
	}
}

// TestFrameInternsProtocolKinds pins the kind literals package frame spells
// out (it cannot import this layer) to the protocol's constants.
func TestFrameInternsProtocolKinds(t *testing.T) {
	for code := byte(1); kindName(code) != ""; code++ {
		kind := kindName(code)
		if kindCode(kind) != code {
			t.Errorf("kind %q: code %d does not map back", kind, code)
		}
		raw := []byte(kind)
		if got := frame.Intern(raw); got != kind {
			t.Errorf("frame.Intern(%q) = %q", kind, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = frame.Intern(raw) }); allocs != 0 {
			t.Errorf("frame.Intern(%q) allocates %v times: the literal is missing from its table", kind, allocs)
		}
	}
}
