package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/exception"
	"repro/internal/ident"
)

// tcpScenarioDef is a nested-action resolution workload: two concurrent
// raisers, one object inside a nested action (which must be aborted and its
// abortion exception folded into the resolution), one idler. With barrier set
// the raisers wait until the nested body has been entered, so the raises never
// race O3's Enclose and the nested action is always the one aborted.
func tcpScenarioDef(nested *ActionSpec, handled *sync.Map, barrier bool) Definition {
	var entered chan struct{}
	if barrier {
		entered = make(chan struct{})
	}
	members := []ident.ObjectID{1, 2, 3, 4}
	hs := HandlerSet{Default: func(rctx *RecoveryContext, resolved exception.Exception) (string, error) {
		if handled != nil {
			handled.Store(rctx.Object, resolved.Name)
		}
		return "", nil
	}}
	raise := func(exc string) Body {
		return func(ctx *Context) error {
			if entered != nil {
				<-entered
			}
			ctx.Raise(exc)
			return nil
		}
	}
	return Definition{
		Spec: ActionSpec{
			Name: "tcp-nested", Tree: exception.AircraftTree(), Members: members,
			Handlers: uniformHandlers(members, hs),
		},
		Bodies: map[ident.ObjectID]Body{
			1: raise("left_engine_exception"),
			2: raise("right_engine_exception"),
			3: func(ctx *Context) error {
				_, err := ctx.Enclose(nested, func(nc *Context) error {
					if entered != nil {
						close(entered)
					}
					nc.Sleep(time.Hour)
					return nil
				})
				return err
			},
			4: func(ctx *Context) error { ctx.Sleep(time.Hour); return nil },
		},
	}
}

func tcpScenarioNested() *ActionSpec {
	return &ActionSpec{
		Name: "inner", Tree: exception.AircraftTree(), Members: []ident.ObjectID{3},
		Handlers: map[ident.ObjectID]HandlerSet{3: defaultOnly(noopHandler)},
	}
}

// tcpValidResolutions is the set of correct outcomes for tcpScenarioDef: the
// workload has two concurrent raisers, so the surviving raise set is
// scheduling-dependent on every backend — one raise yields that exception,
// both yield their least common ancestor. Any member of this set is a
// correct resolution; which one a particular run lands on is not a
// transport property. (The strict cross-backend claim — identical committed
// resolutions — is proved by the transport package's
// TestResolutionEquivalence, which pins the raise set before any delivery.)
var tcpValidResolutions = map[string]bool{
	"left_engine_exception":           true,
	"right_engine_exception":          true,
	"emergency_engine_loss_exception": true, // LCA of the two raises
}

// TestRunOverTCPTransport executes the full CA-action stack with every
// protocol message crossing a real TCP socket (one loopback fabric per
// participant, wire-encoded frames, R3 reliability on top) and requires a
// correct resolution with all participants agreeing on it — the behaviour
// the paper cares about, at socket level.
func TestRunOverTCPTransport(t *testing.T) {
	signalling := tcpScenarioNested()
	signalling.Abortion = map[ident.ObjectID]AbortionHandler{
		3: func(*RecoveryContext) string { return "universal_exception" },
	}
	cases := []struct {
		name    string
		nested  *ActionSpec
		barrier bool
		want    map[string]bool
	}{
		{"nested-abort", tcpScenarioNested(), false, tcpValidResolutions},
		// The abortion handler's signal is raised in the containing action
		// and drags the resolution to the tree root, whichever raises survive.
		{"nested-signals", signalling, true, map[string]bool{"universal_exception": true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys := NewServer(Options{
				Transport:  TransportTCP,
				Retransmit: time.Millisecond,
			})
			defer sys.Close()
			var handled sync.Map
			out, err := sys.RunTimeout(tcpScenarioDef(c.nested, &handled, c.barrier), 30*time.Second)
			if err != nil {
				t.Fatalf("tcp run: %v\n%s", err, recordOf(err))
			}
			if !out.Completed {
				t.Fatalf("tcp outcome = %+v", out)
			}
			if !c.want[out.Resolved] {
				t.Errorf("tcp resolved %q, want one of %v", out.Resolved, c.want)
			}
			count := 0
			handled.Range(func(_, v any) bool {
				count++
				if v != out.Resolved {
					t.Errorf("handler saw %v, outcome %q", v, out.Resolved)
				}
				return true
			})
			if count != 4 {
				t.Errorf("handlers ran in %d/4 objects", count)
			}
		})
	}
}

// TestRunOverTCPTransportRepeated: successive runs on one system must not
// collide (each run gets fresh fabrics and listeners) and must each reach a
// correct resolution.
func TestRunOverTCPTransportRepeated(t *testing.T) {
	sys := NewServer(Options{Transport: TransportTCP, Retransmit: time.Millisecond})
	defer sys.Close()
	for i := 0; i < 3; i++ {
		out, err := sys.RunTimeout(tcpScenarioDef(tcpScenarioNested(), nil, false), 30*time.Second)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !out.Completed || !tcpValidResolutions[out.Resolved] {
			t.Fatalf("run %d outcome = %+v", i, out)
		}
	}
}
