package sim_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestRunRefusesUntrainedPolicy runs an untrained SPES without a training
// trace. Its loaded set is empty, so the Driver's first scan of it used to
// panic with an index out of range; the run is refused with ErrUntrained
// and an error naming the policy instead.
func TestRunRefusesUntrainedPolicy(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultGeneratorConfig(40, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, simTr := tr.Split(1440)
	policy := core.New(core.DefaultConfig())
	res, err := sim.Run(policy, nil, simTr, sim.Options{})
	if !errors.Is(err, sim.ErrUntrained) || res != nil {
		t.Fatalf("untrained run returned result %v, error %v; want ErrUntrained", res, err)
	}
	if !strings.Contains(err.Error(), policy.Name()) {
		t.Fatalf("error %q does not name the policy %q", err, policy.Name())
	}
}
