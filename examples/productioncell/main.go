// Command productioncell models the fault-tolerant production cell — the
// case study the CA-action line of work at Newcastle used to motivate
// cooperative recovery — with the nesting shape of the paper's Figure 4:
//
//	A1 "process-plate":  controller, feeder, robot, press
//	  A2 "load-press":   feeder, robot, press
//	    A3 "grip-plate": feeder, robot        (press is outside A3)
//
// While the feeder and robot are gripping a plate inside A3, the press
// detects overheating and raises press_overheat in A2; simultaneously the
// robot detects a slipped plate in A3. The A3 resolution is eliminated by
// the A2 resolution (rule 4 of §3.3); the robot's abortion handler for A3
// signals plate_dropped, and A2's handlers recover from the resolved
// exception covering {press_overheat, plate_dropped}.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	caa "repro"
)

const (
	controller caa.ObjectID = 1
	feeder     caa.ObjectID = 2
	robot      caa.ObjectID = 3
	press      caa.ObjectID = 4
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// One exception tree for the whole cell: mechanical incidents are
	// covered by cell_fault, which the handlers of every action know how to
	// bring to a safe state.
	tree := caa.NewTree("cell_fault").
		Add("press_overheat", "cell_fault").
		Add("plate_slipped", "cell_fault").
		Add("plate_dropped", "cell_fault").
		MustBuild()

	var (
		mu  sync.Mutex
		lg  []string
		seq int
	)
	note := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		seq++
		lg = append(lg, fmt.Sprintf("%02d %s", seq, fmt.Sprintf(format, args...)))
	}

	safeStop := func(rctx *caa.RecoveryContext, resolved caa.Exception) (string, error) {
		note("%s: safe-stop after resolved %q", rctx.Object, resolved.Name)
		return "", nil
	}
	handlersFor := func(members ...caa.ObjectID) map[caa.ObjectID]caa.HandlerSet {
		out := make(map[caa.ObjectID]caa.HandlerSet, len(members))
		for _, m := range members {
			out[m] = caa.HandlerSet{Default: safeStop}
		}
		return out
	}

	a3 := &caa.ActionSpec{
		Name: "grip-plate", Tree: tree,
		Members:  []caa.ObjectID{feeder, robot},
		Handlers: handlersFor(feeder, robot),
		// Abortion handlers belong to the action that gets aborted: when
		// A2's resolution aborts the grip mid-way, the robot reports the
		// dropped plate so the containing recovery accounts for it.
		Abortion: map[caa.ObjectID]caa.AbortionHandler{
			robot: func(rctx *caa.RecoveryContext) string {
				note("%s: abortion handler: releasing grip, plate dropped", rctx.Object)
				return "plate_dropped"
			},
			feeder: func(rctx *caa.RecoveryContext) string {
				note("%s: abortion handler: retracting feeder", rctx.Object)
				return ""
			},
		},
	}
	a2 := &caa.ActionSpec{
		Name: "load-press", Tree: tree,
		Members:  []caa.ObjectID{feeder, robot, press},
		Handlers: handlersFor(feeder, robot, press),
	}

	bodies := map[caa.ObjectID]caa.Body{
		controller: func(ctx *caa.Context) error {
			// The controller is not part of A2/A3; it supervises for a
			// bounded interval and then waits for the others at the A1
			// completion barrier.
			note("%s: supervising", ctx.Object())
			ctx.Sleep(20 * time.Millisecond)
			return nil
		},
		feeder: func(ctx *caa.Context) error {
			_, err := ctx.Enclose(a2, func(c2 *caa.Context) error {
				_, err := c2.Enclose(a3, func(c3 *caa.Context) error {
					note("%s: holding plate steady", c3.Object())
					c3.Sleep(time.Hour)
					return nil
				})
				return err
			})
			return err
		},
		robot: func(ctx *caa.Context) error {
			_, err := ctx.Enclose(a2, func(c2 *caa.Context) error {
				_, err := c2.Enclose(a3, func(c3 *caa.Context) error {
					c3.Sleep(3 * time.Millisecond)
					note("%s: plate slipping in gripper!", c3.Object())
					c3.Raise("plate_slipped")
					return nil
				})
				return err
			})
			return err
		},
		press: func(ctx *caa.Context) error {
			// The press participates in A2 but not in A3.
			_, err := ctx.Enclose(a2, func(c2 *caa.Context) error {
				c2.Sleep(3 * time.Millisecond)
				note("%s: temperature out of range!", c2.Object())
				c2.Raise("press_overheat")
				return nil
			})
			return err
		},
	}

	sys := caa.NewServer(caa.Options{
		Network: caa.NetworkConfig{Latency: caa.JitterLatency(50*time.Microsecond, 200*time.Microsecond, 7)},
	})
	defer sys.Close()

	fmt.Println("production cell: concurrent faults in nested actions")
	out, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name: "process-plate", Tree: tree,
			Members:  []caa.ObjectID{controller, feeder, robot, press},
			Handlers: handlersFor(controller, feeder, robot, press),
		},
		Bodies: bodies,
	})
	if err != nil {
		return err
	}

	mu.Lock()
	sort.Strings(lg)
	for _, l := range lg {
		fmt.Println("  " + l)
	}
	mu.Unlock()

	fmt.Printf("\nA2 outcome reached the containing action: completed=%v, resolved at top=%q\n",
		out.Completed, out.Resolved)
	fmt.Printf("protocol messages: %s\n", sys.Trace().CensusString())
	return nil
}
