package sim

import "repro/internal/trace"

// retrainEffectiveWindow resolves Options.RetrainWindow: 0 defaults to the
// training window length (the retrained categorization sees as much history
// as the offline phase did), or to RetrainEvery when there is no training
// trace.
func (o Options) retrainEffectiveWindow(training *trace.Trace) int {
	if o.RetrainWindow > 0 {
		return o.RetrainWindow
	}
	if training != nil && training.Slots > 0 {
		return training.Slots
	}
	return o.RetrainEvery
}

// BuildRetrainWindow returns the window at simulation slot t: w slots of
// history ending just before t, re-based so window slot 0 is simulation
// slot t-w. Slots still inside the training trace (t < w) come from its
// tail, a function past its table (admitted since) having no training
// history; anything before recorded history is empty. Function metadata is
// shared with recorded.
//
// The window is a view (trace.Trace's Head and Base): per function at most
// two parts, the training series' suffix from slot T+t-w and the recorded
// series' prefix before t, each a capacity-clipped Series.Between of the
// series it reads. Building it costs two slice headers a function and
// copies no event, so training and recorded must not be written while the
// window is held.
func BuildRetrainWindow(training, recorded *trace.Trace, t, w int) *trace.Trace {
	n := len(recorded.Series)
	a := t - w // simulation-timeline slot where the window begins
	win := &trace.Trace{Slots: w, Functions: recorded.Functions, Series: make([]trace.Series, n), Base: int32(a)}
	for f, s := range recorded.Series {
		win.Series[f] = s.Between(max(a, 0), t)
	}
	// While the window straddles the training boundary (a < 0), simulation
	// slot a is training slot T+a, which reads as window slot 0.
	if a < 0 && training != nil {
		from := training.Slots + a
		win.Head, win.HeadBase = make([]trace.Series, min(n, len(training.Series))), int32(from)
		for f := range win.Head {
			win.Head[f] = training.Series[f].Between(from, training.Slots)
		}
	}
	return win
}
