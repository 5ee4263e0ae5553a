package sim

import "repro/internal/trace"

// pair is the item count of one hand-built round.
const pair = 2

// rounds overlaps two stages over two buffers in hand-built rounds: a
// second two-stage pipeline beside trace.Overlap.
func rounds(fill func(k int) bool, step func(k int) error) error {
	for k, more := 0, fill(0); more; k ^= 1 {
		err := trace.FanOut(2, pair, func(_, i int) error {
			if i == 1 {
				more = fill(k ^ 1)
				return nil
			}
			return step(k)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
