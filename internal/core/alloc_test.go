//go:build !race

// sync.Pool drops one Put in four under -race, so pooled participants would be
// rebuilt at random and these counts would not mean anything there.

package core

import (
	"testing"

	"repro/internal/ident"
)

// TestServerActionAllocs gates what core builds around an action's messages:
// a warm raw N=4 server, Submit+Wait, the benchmark's `single` shape with and
// without its raiser.
func TestServerActionAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		raiser bool
		max    float64
	}{
		{"empty", false, 50},
		{"single", true, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := []ident.ObjectID{1, 2, 3, 4}
			bodies := make(map[ident.ObjectID]Body, len(members))
			for _, m := range members {
				bodies[m] = func(*Context) error { return nil }
			}
			want := ""
			if tc.raiser {
				bodies[1] = func(ctx *Context) error { ctx.Raise("E1"); return nil }
				want = "E1"
			}
			def := Definition{
				Spec: ActionSpec{
					Name: tc.name, Tree: testTree("E1"), Members: members,
					Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
				},
				Bodies: bodies,
			}
			s := NewServer(Options{Transport: TransportRaw})
			defer s.Close()
			action := func() {
				p, err := s.Submit(def)
				if err != nil {
					t.Fatal(err)
				}
				if out, err := p.Wait(); err != nil || !out.Completed || out.Resolved != want {
					t.Fatalf("out=%+v err=%v", out, err)
				}
			}
			// Past the point where the server's event ring has filled.
			for i := 0; i < 1000; i++ {
				action()
			}
			if got := testing.AllocsPerRun(1000, action); got > tc.max {
				t.Errorf("%.1f allocations per action, want at most %.0f", got, tc.max)
			} else {
				t.Logf("%.1f allocations per action", got)
			}
		})
	}
}
