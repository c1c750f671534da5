//go:build !race

package wire

import (
	"testing"

	"repro/internal/protocol"
)

// Allocation gates for the message codec, as counts per call. (Not built
// under the race detector, whose instrumentation allocates on its own.)

func TestAppendWarmBufferAllocs(t *testing.T) {
	m := sampleMsg()
	buf, err := Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(500, func() {
		if buf, err = Append(buf[:0], m); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Append into a warm buffer: %v allocs/op, want 0", avg)
	}
}

func TestEncodeDecodeAllocs(t *testing.T) {
	// The flat-action shapes: no nesting path, an exception name or none. A
	// path costs one more allocation, the slice it is decoded into.
	exception := protocol.Msg{Kind: protocol.KindException, Action: 3, From: 7, Exc: "left_engine_exception"}
	ack := protocol.Msg{Kind: protocol.KindAck, Action: 3, From: 7}
	for _, tc := range []struct {
		name           string
		msg            protocol.Msg
		encode, decode float64
	}{
		{"exception", exception, 1, 1}, // the buffer; the name
		{"ack", ack, 1, 0},
		{"nested", sampleMsg(), 1, 2},
	} {
		b, err := Encode(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := Encode(tc.msg); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.encode {
			t.Errorf("%s: Encode %v allocs/op, want at most %v", tc.name, avg, tc.encode)
		}
		if avg := testing.AllocsPerRun(500, func() {
			if _, err := Decode(b); err != nil {
				t.Fatal(err)
			}
		}); avg > tc.decode {
			t.Errorf("%s: Decode %v allocs/op, want at most %v", tc.name, avg, tc.decode)
		}
	}
}
