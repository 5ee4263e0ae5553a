// Package dead plants exported code nothing reaches beside a method reached
// only through the interface it implements.
package dead

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Unused is an exported function nothing calls.
func Unused() {}

// T is reached (by the blank variable below); its method is not.
type T struct{}

// Unused is an exported method nothing calls.
func (T) Unused() {}

var _ = T{}

// policy's exported methods are reached only through sim.Policy.
type policy struct{ sim.LoadedSet }

func (policy) Name() string                      { return "planted" }
func (policy) Train(*trace.Trace)                {}
func (policy) Tick(t int, inv []trace.FuncCount) {}

var _ sim.Policy = &policy{}
