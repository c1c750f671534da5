// Package core is a fixture standing between the harness and crbaseline:
// it declares no kinds but re-exports its dependency's kinds fact.
package core

import "msgkind/crbaseline"

func Baseline() string { return crbaseline.KindRaise }
