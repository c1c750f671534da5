package scenario

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestSpecValidate is the table of specs Validate must reject (and a few it
// must accept): the fuzzer and the CLI both lean on Validate to turn bad
// input into a clean error instead of a wedged or panicking run.
func TestSpecValidate(t *testing.T) {
	ok := Spec{N: 3, P: 1}
	cases := []struct {
		name    string
		spec    Spec
		wantErr string // substring; empty = must pass
	}{
		{"minimal", Spec{N: 1}, ""},
		{"typical", ok, ""},
		{"nested", Spec{N: 5, P: 1, Q: 2, Depth: 2}, ""},
		{"partition", Spec{N: 5, P: 1, Membership: true, Partition: []int{4, 5}}, ""},

		{"zero objects", Spec{N: 0}, "N must be >= 1"},
		{"negative objects", Spec{N: -2}, "N must be >= 1"},
		{"negative raisers", Spec{N: 3, P: -1}, "P must be in [0, N]"},
		{"raisers exceed objects", Spec{N: 3, P: 4}, "P must be in [0, N]"},
		{"negative nested", Spec{N: 3, P: 1, Q: -1}, "P+Q must be <= N"},
		{"nested exceed objects", Spec{N: 3, P: 2, Q: 2}, "P+Q must be <= N"},
		{"nested without depth", Spec{N: 3, P: 1, Q: 1}, "Depth must be >= 1"},
		{"negative depth", Spec{N: 3, P: 1, Depth: -1}, "Depth must not be negative"},
		{"negative raise delay", Spec{N: 3, P: 1, RaiseDelay: -time.Millisecond}, "RaiseDelay must not be negative"},
		{"negative abortion cost", Spec{N: 3, P: 1, AbortionCost: -1}, "AbortionCost must not be negative"},
		{"negative latency", Spec{N: 3, P: 1, Latency: -time.Second}, "Latency must not be negative"},
		{"negative retransmit", Spec{N: 3, P: 1, Retransmit: -1}, "Retransmit must not be negative"},
		{"negative timeout", Spec{N: 3, P: 1, Timeout: -time.Second}, "Timeout must not be negative"},
		{"negative partition delay", Spec{N: 3, P: 1, PartitionDelay: -1}, "PartitionDelay must not be negative"},
		{"partition without membership", Spec{N: 5, P: 1, Partition: []int{5}}, "Partition requires Membership"},
		{"partition object out of range", Spec{N: 5, P: 1, Membership: true, Partition: []int{6}}, "out of range"},
		{"partition object duplicated", Spec{N: 5, P: 1, Membership: true, Partition: []int{4, 4}}, "listed twice"},
		{"partition eats majority", Spec{N: 4, P: 1, Membership: true, Partition: []int{3, 4}}, "strict majority"},
		{"membership over tcp", Spec{N: 3, P: 1, Membership: true, Transport: core.TransportTCP}, "netsim transport"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
