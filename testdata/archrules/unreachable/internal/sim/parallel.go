package sim

// parallelDo is a deleted second copy of the fan-out loop.
func parallelDo(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}
