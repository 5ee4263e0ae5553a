package sim

// runCapacityShards is the retired lockstep capacity engine's scheduler.
func runCapacityShards(shards int, step func(int)) {
	for i := 0; i < shards; i++ {
		step(i)
	}
}
