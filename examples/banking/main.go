// Command banking demonstrates CA actions over external atomic objects
// (§3.1, Figure 2): two clerk objects transfer money between accounts inside
// a nested CA action whose effects are transactional.
//
// Part 1 (forward recovery, Figure 2(a)): an overdraft is detected and
// raised; the resolved handler repairs the accounts into a NEW valid state
// (transfer what is available) and the transaction commits.
//
// Part 2 (backward recovery, Figure 2(b)): the action's acceptance test
// rejects the primary attempt's result; the transaction is aborted — the
// atomic objects roll back — and an alternate body is retried.
package main

import (
	"errors"
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

const (
	clerkA caa.ObjectID = 1
	clerkB caa.ObjectID = 2
)

func run() error {
	if err := forwardRecovery(); err != nil {
		return fmt.Errorf("forward recovery: %w", err)
	}
	fmt.Println()
	if err := backwardRecovery(); err != nil {
		return fmt.Errorf("backward recovery: %w", err)
	}
	return nil
}

// forwardRecovery: overdraft raised inside a nested transfer action; the
// handler repairs state rather than undoing it.
func forwardRecovery() error {
	sys := caa.NewServer(caa.Options{})
	defer sys.Close()

	if err := seedAccounts(sys, 80, 500); err != nil {
		return err
	}

	tree := caa.NewTree("transfer_failed").
		Add("overdraft", "transfer_failed").
		MustBuild()

	members := []caa.ObjectID{clerkA, clerkB}
	// The overdraft handler performs forward recovery: move only what the
	// source account holds, leaving the objects in a new consistent state.
	overdraft := func(rctx *caa.RecoveryContext, resolved caa.Exception) (string, error) {
		if rctx.Object != clerkA {
			return "", nil // one participant performs the repair
		}
		avail, err := rctx.View.Read("acct:alice")
		if err != nil {
			return "", err
		}
		amount := avail.(int)
		if err := rctx.View.Write("acct:alice", 0); err != nil {
			return "", err
		}
		if err := rctx.View.Update("acct:bob", func(v any) (any, error) {
			return v.(int) + amount, nil
		}); err != nil {
			return "", err
		}
		fmt.Printf("  handler(%s): partial transfer of %d committed instead\n", rctx.Object, amount)
		return "", nil
	}
	handlers := map[caa.ObjectID]caa.HandlerSet{
		clerkA: {ByName: map[string]caa.Handler{"overdraft": overdraft},
			Default: func(*caa.RecoveryContext, caa.Exception) (string, error) { return "transfer_failed", nil }},
		clerkB: {ByName: map[string]caa.Handler{"overdraft": overdraft},
			Default: func(*caa.RecoveryContext, caa.Exception) (string, error) { return "transfer_failed", nil }},
	}

	transfer := &caa.ActionSpec{
		Name: "transfer", Tree: tree, Members: members, Handlers: handlers,
	}

	def := caa.Definition{
		Spec: caa.ActionSpec{
			Name: "banking-day", Tree: tree, Members: members, Handlers: handlers,
		},
		Bodies: map[caa.ObjectID]caa.Body{
			clerkA: func(ctx *caa.Context) error {
				res, err := ctx.Enclose(transfer, func(n *caa.Context) error {
					const amount = 200
					bal, err := n.Read("acct:alice")
					if err != nil {
						return err
					}
					if bal.(int) < amount {
						fmt.Printf("  %s: balance %d < %d, raising overdraft\n",
							n.Object(), bal.(int), amount)
						n.Raise("overdraft")
					}
					if err := n.Write("acct:alice", bal.(int)-amount); err != nil {
						return err
					}
					return n.Update("acct:bob", func(v any) (any, error) {
						return v.(int) + amount, nil
					})
				})
				if err != nil {
					return err
				}
				fmt.Printf("  %s: nested transfer finished (resolved=%q)\n", ctx.Object(), res.Resolved)
				return nil
			},
			clerkB: func(ctx *caa.Context) error {
				_, err := ctx.Enclose(transfer, func(n *caa.Context) error {
					n.Sleep(time.Hour) // audits concurrently; interrupted on exception
					return nil
				})
				return err
			},
		},
	}

	fmt.Println("part 1: forward recovery of an overdraft")
	out, err := sys.Run(def)
	if err != nil {
		return err
	}
	if !out.Completed {
		return errors.New("action did not complete")
	}
	snap := sys.Store().Snapshot()
	fmt.Printf("  final balances: alice=%v bob=%v (sum preserved: %v)\n",
		snap["acct:alice"], snap["acct:bob"],
		snap["acct:alice"].(int)+snap["acct:bob"].(int) == 580)
	return nil
}

// backwardRecovery: a conversation-style acceptance test rejects the primary
// attempt; the alternate passes.
func backwardRecovery() error {
	sys := caa.NewServer(caa.Options{})
	defer sys.Close()

	if err := seedAccounts(sys, 300, 500); err != nil {
		return err
	}

	tree := caa.NewTree("transfer_failed").MustBuild()
	members := []caa.ObjectID{clerkA, clerkB}
	noop := caa.HandlerSet{Default: func(*caa.RecoveryContext, caa.Exception) (string, error) {
		return "", nil
	}}
	handlers := map[caa.ObjectID]caa.HandlerSet{clerkA: noop, clerkB: noop}

	def := caa.Definition{
		Spec: caa.ActionSpec{
			Name: "audited-transfer", Tree: tree, Members: members, Handlers: handlers,
			// Acceptance test: no account may go below 100 after the day.
			AcceptanceTest: func(view *caa.TxnView) bool {
				a, err1 := view.Read("acct:alice")
				b, err2 := view.Read("acct:bob")
				return err1 == nil && err2 == nil && a.(int) >= 100 && b.(int) >= 100
			},
		},
		Bodies: map[caa.ObjectID]caa.Body{
			// Primary: transfers too much; will fail the acceptance test.
			clerkA: transferBody(250),
			clerkB: func(ctx *caa.Context) error { return nil },
		},
	}
	alternate := caa.Attempt{
		// Alternate algorithm: a smaller transfer that keeps the invariant.
		clerkA: transferBody(150),
		clerkB: func(ctx *caa.Context) error { return nil },
	}

	fmt.Println("part 2: backward recovery via acceptance test + alternate")
	rec, err := sys.RunWithRecovery(def, []caa.Attempt{alternate})
	if err != nil {
		return err
	}
	snap := sys.Store().Snapshot()
	fmt.Printf("  attempts used: %d (primary aborted, alternate committed)\n", rec.Attempts)
	fmt.Printf("  final balances: alice=%v bob=%v\n", snap["acct:alice"], snap["acct:bob"])
	if rec.Attempts != 2 || snap["acct:alice"].(int) != 150 {
		return errors.New("unexpected recovery result")
	}
	return nil
}

// transferBody moves amount from alice to bob.
func transferBody(amount int) caa.Body {
	return func(ctx *caa.Context) error {
		if err := ctx.Update("acct:alice", func(v any) (any, error) {
			return v.(int) - amount, nil
		}); err != nil {
			return err
		}
		return ctx.Update("acct:bob", func(v any) (any, error) {
			return v.(int) + amount, nil
		})
	}
}

// seedAccounts initialises the two atomic objects outside any CA action.
func seedAccounts(sys *caa.Server, alice, bob int) error {
	tx := sys.Store().Begin()
	if err := tx.Write("acct:alice", alice); err != nil {
		return err
	}
	if err := tx.Write("acct:bob", bob); err != nil {
		return err
	}
	return tx.Commit()
}
