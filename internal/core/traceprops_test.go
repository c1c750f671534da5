package core

import (
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TestTracePropertiesOnFullRuns runs a set of workloads and validates the
// recorded traces against the global properties every run must satisfy:
// per-pair FIFO delivery and handler agreement per action.
func TestTracePropertiesOnFullRuns(t *testing.T) {
	workloads := []struct {
		name string
		run  func(sys *Server) error
	}{
		{
			name: "concurrent raises",
			run: func(sys *Server) error {
				members := []ident.ObjectID{1, 2, 3, 4}
				def := Definition{
					Spec: ActionSpec{
						Name: "w1", Tree: exception.AircraftTree(), Members: members,
						Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
					},
					Bodies: map[ident.ObjectID]Body{
						1: func(ctx *Context) error { ctx.Raise("left_engine_exception"); return nil },
						2: func(ctx *Context) error { ctx.Raise("right_engine_exception"); return nil },
						3: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
						4: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
					},
				}
				_, err := sys.Run(def)
				return err
			},
		},
		{
			name: "nested abort",
			run: func(sys *Server) error {
				members := []ident.ObjectID{1, 2, 3}
				inner := []ident.ObjectID{2, 3}
				nested := &ActionSpec{
					Name: "in", Tree: testTree("nf"), Members: inner,
					Handlers: uniformHandlers(inner, defaultOnly(noopHandler)),
				}
				def := Definition{
					Spec: ActionSpec{
						Name: "w2", Tree: testTree("of"), Members: members,
						Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
					},
					Bodies: map[ident.ObjectID]Body{
						1: func(ctx *Context) error {
							ctx.Sleep(5 * time.Millisecond)
							ctx.Raise("of")
							return nil
						},
						2: func(ctx *Context) error {
							_, err := ctx.Enclose(nested, func(n *Context) error {
								n.Sleep(time.Hour)
								return nil
							})
							return err
						},
						3: func(ctx *Context) error {
							_, err := ctx.Enclose(nested, func(n *Context) error {
								n.Sleep(time.Hour)
								return nil
							})
							return err
						},
					},
				}
				_, err := sys.Run(def)
				return err
			},
		},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			// FIFO and agreement are properties of a complete history.
			sys := NewServer(Options{
				Network: netsim.Config{Latency: netsim.JitterLatency(0, 300*time.Microsecond, 9)},
				Trace:   trace.NewLog(),
			})
			defer sys.Close()
			if err := wl.run(sys); err != nil {
				t.Fatalf("workload: %v", err)
			}
			events := sys.Trace().Events()
			if err := trace.CheckFIFO(events); err != nil {
				t.Errorf("FIFO property: %v", err)
			}
			if err := trace.CheckHandlersAgree(events); err != nil {
				t.Errorf("agreement property: %v", err)
			}
		})
	}
}
