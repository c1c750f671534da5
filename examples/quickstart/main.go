// Command quickstart is the smallest complete CA-action program: three
// participating objects cooperate in one action; one of them detects an
// error and raises an exception; the resolution protocol runs and every
// participant executes the handler for the resolved exception.
package main

import (
	"fmt"
	"log"
	"time"

	caa "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Declare the action's exception context: a resolution tree. The
	// root ("universal") covers everything.
	tree := caa.NewTree("universal").
		Add("sensor_fault", "universal").
		Add("actuator_fault", "universal").
		MustBuild()

	// 2. A handler shared by every participant. The resolved exception is
	// guaranteed to cover whatever was raised concurrently.
	recover := func(rctx *caa.RecoveryContext, resolved caa.Exception) (string, error) {
		fmt.Printf("  %s: handling resolved exception %q\n", rctx.Object, resolved.Name)
		// Returning "" completes the action successfully (forward recovery).
		return "", nil
	}

	members := []caa.ObjectID{1, 2, 3}
	handlers := map[caa.ObjectID]caa.HandlerSet{
		1: {Default: recover},
		2: {Default: recover},
		3: {Default: recover},
	}

	// 3. Bodies: O2 detects a sensor fault; the others work away. Bodies
	// must be cooperative — long waits go through ctx.Sleep so that
	// exception resolution can interrupt them.
	bodies := map[caa.ObjectID]caa.Body{
		1: func(ctx *caa.Context) error {
			fmt.Printf("  %s: working\n", ctx.Object())
			ctx.Sleep(time.Hour) // interrupted by the resolution
			return nil
		},
		2: func(ctx *caa.Context) error {
			fmt.Printf("  %s: detected a sensor fault, raising\n", ctx.Object())
			ctx.Raise("sensor_fault") // never returns (termination model)
			return nil
		},
		3: func(ctx *caa.Context) error {
			fmt.Printf("  %s: working\n", ctx.Object())
			ctx.Sleep(time.Hour)
			return nil
		},
	}

	// 4. Run the action on a simulated distributed system (each object gets
	// its own network node; messages have 1ms one-way latency).
	sys := caa.NewServer(caa.Options{
		Network: caa.NetworkConfig{Latency: caa.FixedLatency(time.Millisecond)},
	})
	defer sys.Close()

	fmt.Println("running CA action with 3 participants:")
	out, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name:     "quickstart",
			Tree:     tree,
			Members:  members,
			Handlers: handlers,
		},
		Bodies: bodies,
	})
	if err != nil {
		return err
	}

	fmt.Printf("outcome: completed=%v resolved=%q signalled=%q\n",
		out.Completed, out.Resolved, out.Signalled)
	fmt.Printf("protocol message census: %s\n", sys.Trace().CensusString())
	fmt.Printf("paper's prediction for N=3, P=1, Q=0: %d messages\n",
		caa.PredictMessages(3, 1, 0))
	return nil
}
