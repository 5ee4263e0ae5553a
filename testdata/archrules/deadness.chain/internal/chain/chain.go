// Package chain plants a two-link dead chain: Head is reached by nothing,
// Middle only from Head, and Tail only from Middle. They are declared
// against the order of the chain, so no single pass in declaration order
// finds more than Head; deadness is a fixpoint, and one run reports all
// three.
package chain

// Tail is named only by Middle.
type Tail struct{}

// Middle is called only by Head.
func Middle() Tail { return Tail{} }

// Head is an exported function nothing calls.
func Head() { _ = Middle() }
