package scengen

import (
	"errors"
	"fmt"
	"time"
)

// The presets build the hand-written workloads of the paper's §4.4 analysis
// as Programs, so caasim and cmd/experiments run them through the compiler
// and runner the fuzzer uses, and Check can hold them to the oracle. Their
// parameters arrive from the command line: each constructor rejects bad input
// with an error, Program.Validate's included.

// Grid is the §4.4 workload: N objects of one action under the flat tree
// omega → exc1..excN. Objects 1..P raise exc1..excP concurrently after
// raiseDelay; the next Q objects each sit on their own chain of depth
// singleton nested actions, which the raises must abort; the rest idle. wait
// selects the Figure 1(a) policy (wait for nested actions) over 1(b).
func Grid(n, p, q, depth int, raiseDelay time.Duration, wait bool) (*Program, error) {
	switch {
	case n < 1:
		return nil, errors.New("scengen: N must be >= 1")
	case p < 0 || p > n:
		return nil, errors.New("scengen: P must be in [0, N]")
	case q < 0 || p+q > n:
		return nil, errors.New("scengen: P+Q must be <= N")
	case q > 0 && depth < 1:
		return nil, errors.New("scengen: Depth must be >= 1 when Q > 0")
	case depth < 0:
		return nil, errors.New("scengen: Depth must not be negative")
	}
	delay, err := millis("raise delay", raiseDelay)
	if err != nil {
		return nil, err
	}
	prog := &Program{Version: Version, Exceptions: []ExcNode{{Name: "omega"}}}
	fam := Family{WaitForNested: wait}
	for obj := 1; obj <= n; obj++ {
		prog.Exceptions = append(prog.Exceptions, ExcNode{Name: fmt.Sprintf("exc%d", obj), Parent: "omega"})
		fam.Objects = append(fam.Objects, obj)
	}
	fam.Actions = []Action{{Parent: -1, Members: fam.Objects}}
	for obj := 1; obj <= p; obj++ {
		fam.Raises = append(fam.Raises, Raise{Obj: obj, Exc: fmt.Sprintf("exc%d", obj), DelayMS: delay})
	}
	for obj := p + 1; obj <= p+q; obj++ {
		parent := 0
		for d := 0; d < depth; d++ {
			fam.Actions = append(fam.Actions, Action{Parent: parent, Members: []int{obj}})
			parent = len(fam.Actions) - 1
		}
	}
	prog.Families = []Family{fam}
	return prog, prog.Validate()
}

// Partitioned cuts the listed objects of prog's one family away from the rest
// delay after the run starts (0 = 20 ms). The surviving majority expels them
// as the participant-failure exception.
func Partitioned(prog *Program, cut []int, delay time.Duration) (*Program, error) {
	ms, err := millis("partition delay", delay)
	if err != nil {
		return nil, err
	}
	prog.Partition = &Partition{Cut: cut, DelayMS: ms}
	return prog, prog.Validate()
}

// Churn is the membership-churn workload on one persistent group of n: the
// victims (default {n}) are cut away, expelled, healed and readmitted cycles
// times, then the lowest survivor raises exc-churn 5 ms into a whole-group
// run, which the readmitted members must resolve too.
func Churn(n int, victims []int, cycles int) (*Program, error) {
	if n < 3 {
		return nil, errors.New("scengen: churn needs N >= 3 (a strict majority must survive the cut)")
	}
	if cycles < 1 {
		return nil, errors.New("scengen: churn needs at least one cycle")
	}
	if len(victims) == 0 {
		victims = []int{n}
	}
	isVictim := make(map[int]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}
	fam := Family{}
	raiser := 0
	for obj := 1; obj <= n; obj++ {
		fam.Objects = append(fam.Objects, obj)
		if raiser == 0 && !isVictim[obj] {
			raiser = obj
		}
	}
	fam.Actions = []Action{{Parent: -1, Members: fam.Objects}}
	fam.Raises = []Raise{{Obj: raiser, Exc: "exc-churn", DelayMS: 5}}
	prog := &Program{
		Version:    Version,
		Exceptions: []ExcNode{{Name: "omega"}, {Name: "exc-churn", Parent: "omega"}},
		Families:   []Family{fam},
		Partition:  &Partition{Cut: victims, Heal: true, Flap: cycles - 1},
	}
	return prog, prog.Validate()
}

// NoException is the zero-overhead workload: each of n objects does four
// locking read-modify-writes on keys of its own and nobody raises, so the run
// sends no protocol message.
func NoException(n int) (*Program, error) {
	fam := Family{}
	for obj := 1; obj <= n; obj++ {
		fam.Objects = append(fam.Objects, obj)
		for w := 0; w < 4; w++ {
			fam.Ops = append(fam.Ops, AtomicOp{Obj: obj, Key: fmt.Sprintf("obj-%d-%d", obj, w), Add: 1})
		}
	}
	fam.Actions = []Action{{Parent: -1, Members: fam.Objects}}
	prog := &Program{Version: Version, Exceptions: []ExcNode{{Name: "omega"}}, Families: []Family{fam}}
	return prog, prog.Validate()
}

// millis converts a preset's delay to a program's whole milliseconds.
func millis(name string, d time.Duration) (int, error) {
	if d < 0 {
		return 0, fmt.Errorf("scengen: %s must not be negative", name)
	}
	return int(d / time.Millisecond), nil
}
