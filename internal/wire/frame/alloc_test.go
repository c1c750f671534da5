//go:build !race

package frame

import (
	"bufio"
	"bytes"
	"testing"
)

// The socket path frames every message into a buffer it already owns and
// decodes every message out of the one buffer Read allocated for it, so
// neither direction may allocate for a frame of a well-known kind. (Not built
// under the race detector, whose instrumentation allocates on its own.)

func TestAppendWarmBufferAllocs(t *testing.T) {
	f := Frame{From: 1, To: 2, Kind: "group.envelope", Action: 42, Payload: []byte("payload bytes")}
	buf, err := Append(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if buf, err = Append(buf[:0], f); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Append into a warm buffer: %v allocs/op, want 0", avg)
	}
}

func TestDecodeInternedKindAllocs(t *testing.T) {
	for _, kind := range []string{"group.envelope", "Exception", "ACK", ""} {
		full, err := Encode(Frame{From: 1, To: 2, Kind: kind, Action: 42, Payload: []byte("payload bytes")})
		if err != nil {
			t.Fatal(err)
		}
		body := full[headerSize:]
		avg := testing.AllocsPerRun(500, func() {
			if _, err := Decode(body); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("Decode of a %q frame: %v allocs/op, want 0", kind, avg)
		}
	}
}

// TestReadBufferedAllocs: reading from a bufio.Reader, the length prefix is
// read in the reader's own buffer, so the body Read hands over is a frame's
// only allocation.
func TestReadBufferedAllocs(t *testing.T) {
	full, err := Encode(Frame{From: 1, To: 2, Kind: "Exception", Action: 42, Payload: []byte("payload bytes")})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	br := bufio.NewReader(src)
	avg := testing.AllocsPerRun(500, func() {
		src.Reset(full)
		br.Reset(src)
		if _, err := Read(br); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Fatalf("Read from a bufio.Reader: %v allocs/op, want 1 (the body)", avg)
	}
}
