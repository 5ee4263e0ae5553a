package sim

import "repro/internal/faultinject"

// faults makes the engine depend on the harness that tests it.
var faults *faultinject.Injector
