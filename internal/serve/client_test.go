package serve

import (
	"errors"
	"fmt"
	"testing"
)

// Send retries exactly the failures marked transient, however deeply the
// mark is wrapped.
func TestIsTransientWalksUnwrapChain(t *testing.T) {
	base := errors.New("connection reset")
	if isTransient(base) {
		t.Error("unmarked error reported transient")
	}
	wrapped := fmt.Errorf("sending batch: %w", markTransient(base))
	if !isTransient(wrapped) {
		t.Error("wrap of a marked error not reported transient")
	}
	if isTransient(nil) {
		t.Error("nil reported transient")
	}
	if !errors.Is(wrapped, base) {
		t.Error("markTransient broke the Is chain")
	}
}
