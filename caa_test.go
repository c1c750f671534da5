package caa_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	caa "repro"
)

// TestPublicAPIEndToEnd drives the whole library through the public facade
// only: tree building, system setup, nested actions, atomic objects,
// concurrent raising, resolution and recovery.
func TestPublicAPIEndToEnd(t *testing.T) {
	tree := caa.NewTree("failure").
		Add("disk_full", "failure").
		Add("net_down", "failure").
		MustBuild()
	if !tree.Contains("disk_full") {
		t.Fatal("tree lost a node")
	}

	// Both raises may or may not be concurrent: the resolution is either one
	// of them alone or the failure covering both.
	covering := map[string]bool{"failure": true, "disk_full": true, "net_down": true}
	var handled atomic.Int32
	recover := func(rctx *caa.RecoveryContext, resolved caa.Exception) (string, error) {
		if !covering[resolved.Name] {
			return "", fmt.Errorf("resolved %q, want a raised exception or the covering failure", resolved.Name)
		}
		handled.Add(1)
		return "", nil
	}
	members := []caa.ObjectID{1, 2, 3}
	handlers := map[caa.ObjectID]caa.HandlerSet{
		1: {Default: recover}, 2: {Default: recover}, 3: {Default: recover},
	}

	sys := caa.NewServer(caa.Options{
		Network: caa.NetworkConfig{Latency: caa.JitterLatency(0, 100*time.Microsecond, 5)},
	})
	defer sys.Close()

	out, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name: "api-test", Tree: tree, Members: members, Handlers: handlers,
		},
		Bodies: map[caa.ObjectID]caa.Body{
			1: func(ctx *caa.Context) error { ctx.Raise("disk_full"); return nil },
			2: func(ctx *caa.Context) error { ctx.Raise("net_down"); return nil },
			3: func(ctx *caa.Context) error { ctx.Sleep(time.Hour); return nil },
		},
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !out.Completed {
		t.Fatalf("outcome = %+v", out)
	}
	if !covering[out.Resolved] {
		t.Errorf("resolved = %q", out.Resolved)
	}
	if handled.Load() != 3 {
		t.Errorf("handlers ran %d times, want 3", handled.Load())
	}
}

func TestPublicPredictMessages(t *testing.T) {
	if caa.PredictMessages(4, 1, 0) != 9 {
		t.Error("PredictMessages broken")
	}
}

func TestPublicTrees(t *testing.T) {
	if caa.AircraftTree().Size() != 4 {
		t.Error("AircraftTree")
	}
	if caa.ChainTree(5).Size() != 5 {
		t.Error("ChainTree")
	}
}

// ExampleServer_Run demonstrates the basic flow: one raiser, shared
// handlers, deterministic output.
func ExampleServer_Run() {
	tree := caa.NewTree("failure").Add("disk_full", "failure").MustBuild()
	recover := func(rctx *caa.RecoveryContext, resolved caa.Exception) (string, error) {
		return "", nil // recovered: complete the action
	}
	sys := caa.NewServer(caa.Options{})
	defer sys.Close()

	out, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name: "example", Tree: tree,
			Members: []caa.ObjectID{1, 2},
			Handlers: map[caa.ObjectID]caa.HandlerSet{
				1: {Default: recover}, 2: {Default: recover},
			},
		},
		Bodies: map[caa.ObjectID]caa.Body{
			1: func(ctx *caa.Context) error { ctx.Raise("disk_full"); return nil },
			2: func(ctx *caa.Context) error { ctx.Sleep(time.Hour); return nil },
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("completed=%v resolved=%s\n", out.Completed, out.Resolved)
	// Output: completed=true resolved=disk_full
}

// ExampleContext_Enclose demonstrates a nested CA action whose transaction
// commits into the containing action.
func ExampleContext_Enclose() {
	tree := caa.NewTree("failure").MustBuild()
	noop := func(*caa.RecoveryContext, caa.Exception) (string, error) { return "", nil }
	handlers := map[caa.ObjectID]caa.HandlerSet{1: {Default: noop}}
	nested := &caa.ActionSpec{
		Name: "inner", Tree: tree, Members: []caa.ObjectID{1}, Handlers: handlers,
	}

	sys := caa.NewServer(caa.Options{})
	defer sys.Close()
	_, err := sys.Run(caa.Definition{
		Spec: caa.ActionSpec{
			Name: "outer", Tree: tree, Members: []caa.ObjectID{1}, Handlers: handlers,
		},
		Bodies: map[caa.ObjectID]caa.Body{
			1: func(ctx *caa.Context) error {
				res, err := ctx.Enclose(nested, func(n *caa.Context) error {
					return n.Write("greeting", "hello")
				})
				if err != nil {
					return err
				}
				fmt.Printf("nested completed=%v\n", res.Completed)
				return nil
			},
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("store=%v\n", sys.Store().Snapshot()["greeting"])
	// Output:
	// nested completed=true
	// store=hello
}
