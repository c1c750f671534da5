// Command aircraft reproduces the paper's running example (§3.2): the
// exception tree of an aircraft control system where engine exceptions are
// organised by severity,
//
//	universal_exception
//	  emergency_engine_loss_exception
//	    left_engine_exception
//	    right_engine_exception
//
// Two monitor objects detect the loss of the left and right engines at the
// same moment — correlated errors that are "the symptoms of a different,
// more serious fault". The resolution protocol combines them into
// emergency_engine_loss_exception, and all four flight-control objects run
// that (more drastic) handler rather than the two single-engine ones.
package main

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	caa "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tree := caa.AircraftTree() // the §3.2 tree, verbatim names

	const (
		leftMonitor  caa.ObjectID = 1
		rightMonitor caa.ObjectID = 2
		autopilot    caa.ObjectID = 3
		fuelSystem   caa.ObjectID = 4
	)
	members := []caa.ObjectID{leftMonitor, rightMonitor, autopilot, fuelSystem}

	var (
		mu      sync.Mutex
		actions []string
	)
	record := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		actions = append(actions, fmt.Sprintf(format, args...))
	}

	// Handlers per exception: losing one engine trims the aircraft; losing
	// both means an emergency descent. Every participant must handle every
	// declared exception (the paper's assumption that kills the domino
	// effect); here they share one set.
	handlers := caa.HandlerSet{
		ByName: map[string]caa.Handler{
			"left_engine_exception": func(rctx *caa.RecoveryContext, _ caa.Exception) (string, error) {
				record("%s: trim right, boost right engine", rctx.Object)
				return "", nil
			},
			"right_engine_exception": func(rctx *caa.RecoveryContext, _ caa.Exception) (string, error) {
				record("%s: trim left, boost left engine", rctx.Object)
				return "", nil
			},
			"emergency_engine_loss_exception": func(rctx *caa.RecoveryContext, _ caa.Exception) (string, error) {
				record("%s: EMERGENCY DESCENT procedure", rctx.Object)
				return "", nil
			},
			"universal_exception": func(rctx *caa.RecoveryContext, _ caa.Exception) (string, error) {
				record("%s: last-will recovery", rctx.Object)
				return "universal_exception", nil
			},
		},
	}
	handlerMap := make(map[caa.ObjectID]caa.HandlerSet, len(members))
	for _, m := range members {
		handlerMap[m] = handlers
	}

	bodies := map[caa.ObjectID]caa.Body{
		leftMonitor: func(ctx *caa.Context) error {
			ctx.Sleep(2 * time.Millisecond) // both failures hit at ~the same time
			fmt.Println("  left monitor: LEFT ENGINE FLAMEOUT")
			ctx.Raise("left_engine_exception")
			return nil
		},
		rightMonitor: func(ctx *caa.Context) error {
			ctx.Sleep(2 * time.Millisecond)
			fmt.Println("  right monitor: RIGHT ENGINE FLAMEOUT")
			ctx.Raise("right_engine_exception")
			return nil
		},
		autopilot: func(ctx *caa.Context) error {
			if err := ctx.Write("attitude", "level"); err != nil {
				return err
			}
			ctx.Sleep(time.Hour)
			return nil
		},
		fuelSystem: func(ctx *caa.Context) error {
			if err := ctx.Write("fuel-crossfeed", "closed"); err != nil {
				return err
			}
			ctx.Sleep(time.Hour)
			return nil
		},
	}

	sys := caa.NewServer(caa.Options{
		Network: caa.NetworkConfig{
			Latency: caa.JitterLatency(100*time.Microsecond, 400*time.Microsecond, 42),
		},
	})
	defer sys.Close()

	fmt.Println("flight-control CA action, four participants:")
	out, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name: "flight-control", Tree: tree, Members: members, Handlers: handlerMap,
		},
		Bodies: bodies,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nresolved exception: %q\n", out.Resolved)
	fmt.Println("coordinated recovery actions:")
	mu.Lock()
	sort.Strings(actions)
	for _, a := range actions {
		fmt.Println("  " + a)
	}
	mu.Unlock()

	switch out.Resolved {
	case "emergency_engine_loss_exception":
		fmt.Println("\nboth raises were concurrent: the tree resolved them to the covering emergency exception.")
	case "left_engine_exception", "right_engine_exception":
		fmt.Println("\none raise arrived before the other was made: a single-engine handler sufficed.")
	}
	fmt.Printf("protocol messages: %s\n", sys.Trace().CensusString())
	return nil
}
