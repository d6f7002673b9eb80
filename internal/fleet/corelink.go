package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
)

// CorelinkSpec describes the fleet-corelink scenario: the open-loop HTTP
// workload of fleet-openloop, but with every member's download direction
// transiting one named shared core link whose capacity all shards jointly
// respect. Without the coupling a "fleet-scale" overload is N disjoint
// per-shard overloads; with it, the goodput knee and the p99 collapse appear
// at the global offered load against the shared rate — overload becomes a
// system property.
type CorelinkSpec struct {
	OpenLoopSpec
	// Shared is the contended resource every member's server-to-client
	// direction transits (zero value = "core" at 100 Mbps, 100 ms epochs).
	Shared capacity.SharedLink
	// Weight gives member i's allocation weight on the shared link (nil =
	// equal weights). A shard's weight is the sum of its members'.
	Weight func(i int) float64
}

// DefaultCorelinkSpec builds the stock fleet-corelink workload: the
// fleet-openloop defaults plus a shared core link of the given rate.
func DefaultCorelinkSpec(seed uint64, hosts int, rate float64, window time.Duration, coreBps int64) CorelinkSpec {
	return CorelinkSpec{
		OpenLoopSpec: DefaultOpenLoopSpec(seed, hosts, rate, window),
		Shared:       capacity.SharedLink{Name: "core", RateBps: coreBps},
	}
}

func (s CorelinkSpec) withDefaults() CorelinkSpec {
	s.OpenLoopSpec = s.OpenLoopSpec.withDefaults()
	if s.Shared.RateBps == 0 {
		s.Shared.RateBps = netem.Mbps(100)
	}
	if s.Shared.Name == "" {
		s.Shared.Name = "core"
	}
	if s.Shared.Epoch == 0 {
		s.Shared.Epoch = capacity.DefaultEpoch
	}
	return s
}

// RunCorelink executes the fleet-corelink scenario and returns the merged
// result, byte-identical at any worker count for a fixed spec.
func RunCorelink(spec CorelinkSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	sc := openLoopScenario(spec.OpenLoopSpec)
	sc.id = "fleet-corelink"
	sc.title = fmt.Sprintf("open-loop fleet contending for shared link %s (%s)",
		spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
	// Access links run client (A) to server (B); responses flow B->A, so the
	// download direction is the one transiting the shared core.
	sc.shared, sc.weight = &spec.Shared, spec.Weight
	sc.render = func(res *experiments.Result, parts []part[openLoopMerge]) {
		renderOpenLoop(res, parts, spec.Telemetry,
			fmt.Sprintf("%d arrival hosts across %d shards, %v window, shared %s",
				spec.Hosts, len(parts), spec.Window, spec.Shared),
			fmt.Sprintf("every download direction transits shared link %q: global goodput saturates at its %s no matter how the fleet is sharded — overload is a system property, not a per-shard one",
				spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps)))
	}
	return run(sc)
}
