package core

import (
	"repro/internal/vclock"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ident"
	"repro/internal/protocol"
)

// fastMembership keeps partition tests quick without racing the detector's
// initial all-alive timeout.
func fastMembership() *MembershipOptions {
	return &MembershipOptions{
		Heartbeat: time.Millisecond,
		Timeout:   25 * time.Millisecond,
		Poll:      2 * time.Millisecond,
	}
}

// membershipDeadline bounds every membership-monitored run in this package,
// on the clock its system runs on: a wedged view change then fails in
// seconds with the outcome printed, not at go test's ten-minute package
// timeout.
const membershipDeadline = 20 * time.Second

// pfDef builds a membership-ready definition: every member runs body, the
// tree declares the participant-failure exception, and Default handlers
// complete the action after any resolution.
func pfDef(members []ident.ObjectID, body Body) Definition {
	bodies := make(map[ident.ObjectID]Body, len(members))
	for _, m := range members {
		bodies[m] = body
	}
	return Definition{
		Spec: ActionSpec{
			Name:     "omega",
			Tree:     testTree("app", ExcParticipantFailure),
			Members:  members,
			Handlers: uniformHandlers(members, defaultOnly(noopHandler)),
		},
		Bodies: bodies,
	}
}

func TestMembershipValidation(t *testing.T) {
	members := []ident.ObjectID{1, 2}
	body := func(ctx *Context) error { return nil }

	// The socket transport's codec cannot carry view payloads.
	tcp := NewServer(Options{Transport: TransportTCP, Membership: fastMembership()})
	defer tcp.Close()
	if _, err := tcp.RunTimeout(pfDef(members, body), membershipDeadline); err == nil ||
		!strings.Contains(err.Error(), "TransportTCP") {
		t.Errorf("TCP gate error = %v", err)
	}

	// Nor can the socket transport run on a virtual clock, with membership
	// or without: bytes in the kernel cannot be counted.
	vtcp := NewServer(Options{Transport: TransportTCP, Clock: vclock.NewVirtual()})
	defer vtcp.Close()
	if _, err := vtcp.Run(pfDef(members, body)); err == nil ||
		!strings.Contains(err.Error(), "real clock") {
		t.Errorf("TCP on a virtual clock: error = %v", err)
	}

	// The tree must declare the participant-failure exception.
	sys := NewServer(Options{Membership: fastMembership()})
	defer sys.Close()
	def := pfDef(members, body)
	def.Spec.Tree = testTree("app")
	if _, err := sys.RunTimeout(def, membershipDeadline); err == nil ||
		!strings.Contains(err.Error(), ExcParticipantFailure) {
		t.Errorf("tree gate error = %v", err)
	}

	// Partition outside a run is refused.
	if err := sys.Partition("x", 1); err == nil {
		t.Error("Partition without a run succeeded")
	}
}

// TestPartitionExpelsMinority is the core-level storm: five quiescent
// participants, the {4,5} island cut away mid-run. The majority must expel
// both, resolve the participant-failure exception through the §4 machinery
// (no raiser survives, so the degraded chooser concludes it), run handlers,
// and complete; the expelled members must unwind as expelled, not as errors.
func TestPartitionExpelsMinority(t *testing.T) {
	sys := NewServer(Options{Membership: fastMembership()})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	def := pfDef(members, func(ctx *Context) error {
		ctx.Sleep(time.Hour) // interruptible forever-work
		return nil
	})

	go func() {
		time.Sleep(20 * time.Millisecond) // let participants bind and beat
		if err := sys.Partition("storm", 4, 5); err != nil {
			t.Errorf("partition: %v", err)
		}
	}()

	out, err := sys.RunTimeout(def, membershipDeadline)
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, out)
	}
	if out.Resolved != ExcParticipantFailure {
		t.Errorf("resolved = %q, want %q", out.Resolved, ExcParticipantFailure)
	}
	if !slices.Equal(out.Expelled, []ident.ObjectID{4, 5}) {
		t.Errorf("expelled = %v, want [4 5]", out.Expelled)
	}
	if !out.Completed {
		t.Errorf("outcome not completed: %+v", out)
	}
	for _, obj := range []ident.ObjectID{1, 2, 3} {
		res := out.PerObject[obj]
		if res.Expelled || res.Resolved != ExcParticipantFailure {
			t.Errorf("%s: %+v", obj, res)
		}
	}
	for _, obj := range []ident.ObjectID{4, 5} {
		res := out.PerObject[obj]
		if !res.Expelled || res.Err != nil {
			t.Errorf("%s: %+v, want expelled without error", obj, res)
		}
	}
}

// TestConcurrentMembershipActionsShareOneFabric runs membership monitoring on
// the shared runtime: two monitored actions in flight at once over the same
// five objects, each with its own detectors and monitors fed by session-tagged
// heartbeats on the objects' shared transports. One server-scoped cut of {5}
// must make both actions expel exactly {5} and resolve the participant
// failure; the cut then stands until healed with no run in progress, after
// which a third action sees the whole group.
func TestConcurrentMembershipActionsShareOneFabric(t *testing.T) {
	sys := NewServer(Options{Membership: fastMembership()})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	forever := func(ctx *Context) error {
		ctx.Sleep(time.Hour)
		return nil
	}

	type result struct {
		out Outcome
		err error
	}
	results := make([]chan result, 2)
	for k := range results {
		ch := make(chan result, 1)
		results[k] = ch
		go func() {
			out, err := sys.RunTimeout(pfDef(members, forever), membershipDeadline)
			ch <- result{out, err}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let participants bind and beat
	if err := sys.Partition("storm", 5); err != nil {
		t.Fatalf("partition: %v", err)
	}
	for k, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatalf("action %d: %v (outcome %+v)", k, r.err, r.out)
		}
		out := r.out
		if !out.Completed || out.Resolved != ExcParticipantFailure {
			t.Errorf("action %d outcome = %+v, want completed with %q", k, out, ExcParticipantFailure)
		}
		if !slices.Equal(out.Expelled, []ident.ObjectID{5}) {
			t.Errorf("action %d expelled = %v, want [5]", k, out.Expelled)
		}
	}
	sys.mu.Lock()
	bound := len(sys.dispatchers)
	sys.mu.Unlock()
	if bound != len(members) {
		t.Errorf("%d dispatchers, want one per object (%d)", bound, len(members))
	}

	sys.HealPartition("storm") // no run in progress
	out, err := sys.RunTimeout(pfDef(members, func(ctx *Context) error {
		ctx.Sleep(100 * time.Millisecond) // four detector timeouts: a standing cut would expel 5
		return nil
	}), membershipDeadline)
	if err != nil {
		t.Fatalf("post-heal run: %v (outcome %+v)", err, out)
	}
	if !out.Completed || out.Resolved != "" || len(out.Expelled) != 0 {
		t.Errorf("post-heal outcome = %+v, want clean completion with nobody expelled", out)
	}
}

// TestPartitionWithSurvivingRaiser: the application exception and the
// participant failure meet in one resolution — O1 raises while {4,5} are cut
// away, so the survivors' LE holds both and the committed resolution must be
// their least common ancestor.
func TestPartitionWithSurvivingRaiser(t *testing.T) {
	sys := NewServer(Options{Membership: fastMembership()})
	defer sys.Close()
	members := []ident.ObjectID{1, 2, 3, 4, 5}
	def := pfDef(members, func(ctx *Context) error {
		if ctx.Object() == 1 {
			ctx.Sleep(60 * time.Millisecond) // raise after the expulsion lands
			ctx.Raise("app")
		}
		ctx.Sleep(time.Hour)
		return nil
	})

	go func() {
		time.Sleep(20 * time.Millisecond)
		_ = sys.Partition("storm", 4, 5)
	}()

	out, err := sys.RunTimeout(def, membershipDeadline)
	if err != nil {
		t.Fatalf("run: %v (outcome %+v)", err, out)
	}
	if !slices.Equal(out.Expelled, []ident.ObjectID{4, 5}) {
		t.Errorf("expelled = %v", out.Expelled)
	}
	// Depending on timing, O1's raise lands before or after the expulsion's
	// resolution commits; both resolutions cover the participant failure.
	if out.Resolved != "universal" && out.Resolved != ExcParticipantFailure {
		t.Errorf("resolved = %q, want universal (joint) or the failure exception", out.Resolved)
	}
}

// TestNoPartitionOutcomeUnchanged: with membership monitoring on but no
// partition, a run must produce exactly what the monitor-free system
// produces — same outcome, same resolution, no expulsions, identical
// protocol-message census.
func TestNoPartitionOutcomeUnchanged(t *testing.T) {
	body := func(ctx *Context) error {
		if ctx.Object() == 2 {
			ctx.Raise("app")
		}
		ctx.Sleep(time.Hour)
		return nil
	}
	members := []ident.ObjectID{1, 2, 3}

	// The membership traffic rides the fabric but never enters the engines,
	// so the protocol census must come out the same.
	kinds := []string{
		protocol.KindException, protocol.KindAck, protocol.KindHaveNested,
		protocol.KindNestedCompleted, protocol.KindCommit,
	}
	run := func(mo *MembershipOptions) (Outcome, []int) {
		t.Helper()
		sys := NewServer(Options{Membership: mo})
		defer sys.Close()
		out, err := sys.RunTimeout(pfDef(members, body), membershipDeadline)
		if err != nil {
			t.Fatalf("run: %v (outcome %+v)", err, out)
		}
		census := make([]int, len(kinds))
		for i, k := range kinds {
			census[i] = sys.Trace().CountSends(k)
		}
		return out, census
	}

	plain, plainCensus := run(nil)
	monitored, monitoredCensus := run(fastMembership())
	if !slices.Equal(plainCensus, monitoredCensus) {
		t.Errorf("censuses of %v diverge: plain %v vs monitored %v", kinds, plainCensus, monitoredCensus)
	}
	if len(monitored.Expelled) != 0 {
		t.Fatalf("spurious expulsions: %v", monitored.Expelled)
	}
	if plain.Resolved != monitored.Resolved || plain.Completed != monitored.Completed ||
		plain.Signalled != monitored.Signalled || plain.AcceptanceFailed != monitored.AcceptanceFailed {
		t.Errorf("outcomes diverge: plain %+v vs monitored %+v", plain, monitored)
	}
	for _, m := range members {
		if plain.PerObject[m] != monitored.PerObject[m] {
			t.Errorf("%s diverges: %+v vs %+v", m, plain.PerObject[m], monitored.PerObject[m])
		}
	}
}
