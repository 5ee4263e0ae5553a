package main

import (
	"flag"
	"fmt"
)

// main declares a workload flag of its own instead of taking Settings'.
func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()
	fmt.Println(*seed)
}
