package frame

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/ident"
)

func sample() Frame {
	return Frame{
		From:    3,
		To:      -7,
		Kind:    "k.test",
		Payload: []byte("hello frame"),
	}
}

func TestRoundTrip(t *testing.T) {
	cases := []Frame{
		sample(),
		{From: 1, To: 2}, // empty kind, nil payload
		{From: 0, To: 0, Kind: "", Payload: []byte{}}, // empty everything
		{From: 1 << 30, To: -(1 << 30), Kind: "x", Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{From: 9, To: 8, Kind: "s", Payload: []byte("text"), StringPayload: true},
	}
	for i, want := range cases {
		var buf bytes.Buffer
		if err := Write(&buf, want); err != nil {
			t.Fatalf("case %d: Write: %v", i, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("case %d: Read: %v", i, err)
		}
		if got.From != want.From || got.To != want.To || got.Kind != want.Kind ||
			got.StringPayload != want.StringPayload || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("case %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		if buf.Len() != 0 {
			t.Errorf("case %d: %d bytes left after Read", i, buf.Len())
		}
	}
}

func TestReadBackToBack(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 10; i++ {
		f := sample()
		f.From = ident.ObjectID(i)
		if err := Write(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.From != ident.ObjectID(i) {
			t.Errorf("frame %d: From = %d", i, f.From)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Errorf("Read at clean boundary = %v, want io.EOF", err)
	}
}

// TestReadPayloadsDoNotAlias pins what lets Decode hand out sub-slices: Read
// gives every frame a buffer of its own, so writing through one frame's
// payload (or appending to it) cannot reach the next frame off the same
// stream, nor the kind and addressing of its own.
func TestReadPayloadsDoNotAlias(t *testing.T) {
	var buf bytes.Buffer
	for _, p := range []string{"first payload", "second payload"} {
		if err := Write(&buf, Frame{From: 1, To: 2, Kind: "k.test", Payload: []byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	first, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Payload {
		first.Payload[i] = 0xFF
	}
	_ = append(first.Payload, bytes.Repeat([]byte{0xFF}, 64)...)
	if string(second.Payload) != "second payload" || second.Kind != "k.test" || second.From != 1 || second.To != 2 {
		t.Errorf("second frame changed under a write to the first: %+v", second)
	}
	if first.Kind != "k.test" || first.From != 1 || first.To != 2 {
		t.Errorf("first frame's header changed under a write to its payload: %+v", first)
	}
}

// TestReadPartialReads drives Read through a one-byte-at-a-time reader: the
// io.ReadFull calls must assemble frames correctly from fragmented reads.
func TestReadPartialReads(t *testing.T) {
	var buf bytes.Buffer
	want := sample()
	if err := Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	encoded := bytes.Clone(buf.Bytes())
	got, err := Read(iotest.OneByteReader(&buf))
	if err != nil {
		t.Fatalf("Read over one-byte reader: %v", err)
	}
	if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("partial-read mismatch: got %+v", got)
	}
	got, err = Read(bufio.NewReader(iotest.OneByteReader(bytes.NewReader(encoded))))
	if err != nil {
		t.Fatalf("Read through bufio over one-byte reader: %v", err)
	}
	if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
		t.Errorf("partial-read mismatch through bufio: got %+v", got)
	}
}

func TestReadTruncated(t *testing.T) {
	full, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail with ErrShortFrame (or io.EOF for the
	// zero-byte prefix, a clean boundary), read through a bufio.Reader, whose
	// length prefix Read peeks at in place, exactly as through any reader.
	for cut := 1; cut < len(full); cut++ {
		_, err := Read(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(full))
		}
		if !errors.Is(err, ErrShortFrame) {
			t.Errorf("prefix %d: err = %v, want ErrShortFrame", cut, err)
		}
		if _, berr := Read(bufio.NewReader(bytes.NewReader(full[:cut]))); berr == nil || berr.Error() != err.Error() {
			t.Errorf("prefix %d through bufio: err = %v, want %v", cut, berr, err)
		}
	}
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	if _, err := Read(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Errorf("empty stream through bufio: err = %v, want io.EOF", err)
	}
}

func TestReadOversizedPrefix(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameSize+1)
	// The reader must reject the frame on the prefix alone — the body is not
	// there, and a huge allocation would be the bug.
	r := io.MultiReader(bytes.NewReader(hdr[:]), strings.NewReader(strings.Repeat("x", 64)))
	_, err := Read(r)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized prefix: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadZeroLengthBody(t *testing.T) {
	_, err := Read(bytes.NewReader([]byte{0, 0, 0, 0}))
	if !errors.Is(err, ErrEmptyFrame) {
		t.Errorf("zero-length body: err = %v, want ErrEmptyFrame", err)
	}
}

func TestEncodeOversizedFrame(t *testing.T) {
	f := Frame{Kind: "k", Payload: make([]byte, MaxFrameSize)}
	if _, err := Encode(f); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("Encode(oversized) = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	body, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	body[4] = 99 // version byte sits right after the 4-byte prefix
	_, err = Read(bytes.NewReader(body))
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	full, err := Encode(sample())
	if err != nil {
		t.Fatal(err)
	}
	// Grow the declared body length and append garbage: the decoder must
	// notice the leftover bytes.
	full = append(full, 0xFF, 0xFF)
	binary.BigEndian.PutUint32(full, uint32(len(full)-4))
	_, err = Read(bytes.NewReader(full))
	if !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing bytes: err = %v, want ErrTrailingBytes", err)
	}
}
