package main

import "repro/internal/eqv"

// main runs the equivalence matrix from a product CLI.
func main() { _ = eqv.Matrix{} }
