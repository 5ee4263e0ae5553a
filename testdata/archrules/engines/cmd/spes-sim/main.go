package main

import "repro/internal/core"

// main ships the dense reference engine in a CLI.
func main() { _ = core.NewDenseReference(core.DefaultConfig()) }
