// Package protocol is a fixture modelling the repository's protocol package:
// the State enum and the Kind* message-kind constants, plus switches in every
// shape the exhaustive analyzer distinguishes.
package protocol

type State int

const (
	StateNormal State = iota + 1
	StateExceptional
	StateSuspended
	StateReady
)

const (
	KindException       = "Exception"
	KindHaveNested      = "HaveNested"
	KindNestedCompleted = "NestedCompleted"
	KindAck             = "ACK"
	KindCommit          = "Commit"
)

func missingMember(s State) string {
	switch s { // want "missing cases StateReady"
	case StateNormal:
		return "N"
	case StateExceptional:
		return "X"
	case StateSuspended:
		return "S"
	}
	return ""
}

func quietDefault(s State) string {
	switch s { // want "missing cases StateExceptional, StateReady, StateSuspended"
	case StateNormal:
		return "N"
	default:
		return "?"
	}
}

func covered(s State) string {
	switch s {
	case StateNormal, StateExceptional:
		return "live"
	case StateSuspended, StateReady:
		return "settled"
	}
	return ""
}

func loudDefault(s State) string {
	switch s {
	case StateNormal:
		return "N"
	default:
		panic("unhandled state")
	}
}

func suppressed(s State) string {
	//protolint:allow exhaustive only the terminal state matters here
	switch s {
	case StateReady:
		return "R"
	}
	return ""
}

// staleAllow's switch has since learned every member: the allow above it
// excuses nothing and is itself a finding.
func staleAllow(s State) string {
	//protolint:allow exhaustive only the terminal state matters here // want `allow exhaustive suppresses nothing`
	switch s {
	case StateNormal, StateExceptional, StateSuspended:
		return "live"
	case StateReady:
		return "R"
	}
	return ""
}

func kindMissing(kind string) bool {
	switch kind { // want "missing cases KindNestedCompleted, KindAck, KindCommit"
	case KindException, KindHaveNested:
		return true
	}
	return false
}

func kindCovered(kind string) bool {
	switch kind {
	case KindException, KindHaveNested, KindNestedCompleted, KindAck, KindCommit:
		return true
	default:
		panic("unknown kind " + kind)
	}
}

func unrelatedString(s string) bool {
	// A string switch that never names a Kind constant is not committed to
	// any family.
	switch s {
	case "red", "green":
		return true
	}
	return false
}
