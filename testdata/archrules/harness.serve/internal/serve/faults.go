package serve

import "repro/internal/faultinject"

// faults gives the daemon a fault knob where a seam belongs.
var faults *faultinject.Injector
