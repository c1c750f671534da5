// Package crbaseline is a fixture for a kind-declaring package the harness
// reaches only through msgkind/core: its kinds must arrive transitively.
package crbaseline

const KindRaise = "Raise"

// kindUnused is not a Kind* name: it is no message kind.
const kindUnused = "Rase"

var _ = kindUnused
