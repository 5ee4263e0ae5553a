package main

import "fmt"

// main prints a map in iteration order.
func main() {
	for k, v := range map[string]int{"a": 1, "b": 2} {
		fmt.Println(k, v)
	}
}
