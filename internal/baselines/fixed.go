package baselines

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FixedKeepAlive keeps every function loaded for a fixed number of minutes
// after its last invocation — the classic OpenWhisk-style policy the paper
// runs with a 10-minute window.
//
// Expiries run on a shared timing wheel (sched.Wheel), one deadline per function.
type FixedKeepAlive struct {
	sim.LoadedSet

	keepAlive int
	name      string

	wheel *sched.Wheel
	last  []int // last invocation slot per function, -1 when never
}

// NewFixedKeepAlive creates the policy; keepAlive is in slots (minutes) and
// must be positive.
func NewFixedKeepAlive(keepAlive int) *FixedKeepAlive {
	if keepAlive <= 0 {
		panic(fmt.Sprintf("baselines: keep-alive must be positive, got %d", keepAlive))
	}
	return &FixedKeepAlive{
		keepAlive: keepAlive,
		name:      fmt.Sprintf("Fixed-%dmin", keepAlive),
	}
}

// Name implements sim.Policy.
func (p *FixedKeepAlive) Name() string { return p.name }

// Train implements sim.Policy. The fixed policy has no model to fit, but it
// carries its end-of-training state into the simulation: a function invoked
// within the keep-alive window before the boundary starts the simulation
// loaded, exactly as if the policy had been running all along.
func (p *FixedKeepAlive) Train(training *trace.Trace) {
	p.init(training.NumFunctions())
	for fid, s := range training.Series {
		last := s.LastSlot()
		if last < 0 {
			continue
		}
		rebased := int(last) - training.Slots // negative: slots before sim start
		p.last[fid] = rebased
		if expire := rebased + p.keepAlive; expire > 0 {
			p.Load(trace.FuncID(fid))
			p.wheel.Schedule(-1, expire, fid, 0)
		}
	}
}

func (p *FixedKeepAlive) init(n int) {
	p.Reset(n)
	p.wheel = sched.NewWheel(n, 1, p.keepAlive+2)
	p.last = make([]int, n)
	for i := range p.last {
		p.last[i] = -1
	}
}

// grow extends the per-function state to cover FuncIDs up to n-1. Tick grows
// on demand when Train was skipped, so an ad-hoc driver whose later slots
// introduce larger FuncIDs no longer indexes out of range (the first slot
// used to fix the size for good).
func (p *FixedKeepAlive) grow(n int) {
	p.Grow(n)
	p.wheel.Grow(n)
	for len(p.last) < n {
		p.last = append(p.last, -1)
	}
}

// Tick implements sim.Policy.
func (p *FixedKeepAlive) Tick(t int, invs []trace.FuncCount) {
	if p.wheel == nil {
		p.init(0) // tolerate missing Train; grow on demand below
	}
	for _, fc := range invs {
		f := int(fc.Func)
		if f >= len(p.last) {
			p.grow(f + 1)
		}
		p.last[f] = t
		p.wheel.Cancel(f)
		p.wheel.Schedule(t, t+p.keepAlive, f, 0)
		p.Load(fc.Func)
	}
	p.wheel.Drain(t, func(owner, _ int) {
		p.Unload(trace.FuncID(owner))
	})
}

// NextWake implements sim.IdleSkipper: the earliest slot in (after, limit]
// holding a scheduled expiry, -1 when there is none. ok=false only before
// the first Tick of an untrained policy, which has no wheel yet.
func (p *FixedKeepAlive) NextWake(after, limit int) (int, bool) {
	if p.wheel == nil {
		return 0, false
	}
	return p.wheel.NextOccupied(after, limit), true
}
