// Command competing demonstrates the two kinds of concurrency CA actions
// are designed for (§3 of the paper):
//
//   - cooperative concurrency: the objects WITHIN each action work together
//     (a clerk and an auditor jointly processing a payroll);
//   - competitive concurrency: two independently designed actions run at
//     the same time and compete for the same external atomic objects (the
//     company bank account), isolated by the transaction mechanism.
//
// The sales payroll and the engineering payroll each debit the shared
// company account concurrently. Wait-die locking may refuse the younger
// transaction's access; its body backs off and retries. Both actions commit
// and the account reflects both debits — no lost update, no deadlock. Each
// payroll also bumps a shared audit counter through the commutativity fast
// path (Context.Add): increments commute, so the counter never causes a
// conflict however the actions interleave. Finally, a third action
// overdraws, its handler cannot repair it, and the signalled failure leaves
// the account untouched — including its pending audit increment, which is
// discarded with the aborted transaction.
package main

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	caa "repro"
	"repro/internal/atomicobj"
)

const (
	clerk   caa.ObjectID = 1
	auditor caa.ObjectID = 2
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sys := caa.NewServer(caa.Options{})
	defer sys.Close()

	seed := sys.Store().Begin()
	if err := seed.Write("company-account", 10_000); err != nil {
		return err
	}
	if err := seed.Commit(); err != nil {
		return err
	}

	fmt.Println("two payroll actions compete for the company account:")
	var wg sync.WaitGroup
	results := make(map[string]error)
	var mu sync.Mutex
	for _, dept := range []struct {
		name   string
		amount int
	}{
		{name: "sales", amount: 3_000},
		{name: "engineering", amount: 4_500},
	} {
		wg.Add(1)
		go func(name string, amount int) {
			defer wg.Done()
			out, err := sys.Run(payroll(name, amount))
			if err == nil && !out.Completed {
				err = fmt.Errorf("outcome %+v", out)
			}
			mu.Lock()
			results[name] = err
			mu.Unlock()
			fmt.Printf("  %s payroll of %d committed\n", name, amount)
		}(dept.name, dept.amount)
	}
	wg.Wait()
	for name, err := range results {
		if err != nil {
			return fmt.Errorf("%s payroll: %w", name, err)
		}
	}
	snap := sys.Store().Snapshot()
	balance := snap["company-account"].(int)
	fmt.Printf("balance after both payrolls: %d (want 2500)\n", balance)
	fmt.Printf("payrolls-processed: %v (fast-path counter, one per payroll)\n\n",
		snap["payrolls-processed"])

	// A third action overdraws; its handlers give up and signal failure,
	// so the transaction aborts and the balance is preserved — and so is
	// the audit counter: the failed payroll's pending increment dies with
	// its transaction.
	fmt.Println("an overdrawing payroll fails safely:")
	out, err := sys.Run(payroll("contractors", 99_999))
	if err != nil {
		return err
	}
	snap = sys.Store().Snapshot()
	fmt.Printf("  outcome: signalled=%q balance=%v payrolls-processed=%v (both unchanged)\n",
		out.Signalled, snap["company-account"], snap["payrolls-processed"])
	return nil
}

// payroll builds a two-member CA action debiting the company account.
func payroll(dept string, amount int) caa.Definition {
	members := []caa.ObjectID{clerk, auditor}
	giveUp := func(*caa.RecoveryContext, caa.Exception) (string, error) {
		return "payroll_failed", nil // cannot recover: signal failure
	}
	handlers := map[caa.ObjectID]caa.HandlerSet{
		clerk: {Default: giveUp}, auditor: {Default: giveUp},
	}
	return caa.Definition{
		Spec: caa.ActionSpec{
			Name: "payroll-" + dept, Tree: caa.NewTree("payroll_failed").
				Add("insufficient_funds", "payroll_failed").MustBuild(),
			Members: members, Handlers: handlers,
		},
		Bodies: map[caa.ObjectID]caa.Body{
			clerk: func(ctx *caa.Context) error {
				// Audit trail on the fast path: increments commute, so this
				// never waits and never dies — and it is still transactional
				// (discarded if the payroll aborts).
				if err := ctx.Add("payrolls-processed", 1); err != nil {
					return err
				}
				for {
					err := ctx.Update("company-account", func(v any) (any, error) {
						balance := v.(int)
						if balance < amount {
							return nil, errInsufficient
						}
						return balance - amount, nil
					})
					switch {
					case err == nil:
						return nil
					case errors.Is(err, errInsufficient):
						ctx.Raise("insufficient_funds")
					case errors.Is(err, atomicobj.ErrWaitDie):
						// The competing action (an older transaction) holds
						// the account: back off and retry.
						ctx.Sleep(time.Millisecond)
					default:
						return err
					}
				}
			},
			auditor: func(ctx *caa.Context) error {
				// Audits for a bounded interval (interruptible on
				// exceptions), then waits for the clerk at the action's
				// completion barrier.
				ctx.Sleep(2 * time.Millisecond)
				return nil
			},
		},
	}
}

var errInsufficient = errors.New("insufficient funds")
