package sched

// overflow holds deadlines past the wheel's horizon in a map.
type overflow struct{ far map[int][]int32 }
