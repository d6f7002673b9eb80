package fleet

import (
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/probe"
)

// Per-shard flight recording. Like pcap capture, the recorder shards with the
// workload: each shard owns one probe.Recorder covering its global member
// range [Lo, Hi). The recorder runs entirely inside the shard's private
// simulator, so events and samples are stamped with shard sim-time and the
// merged stream (shard-index order, members ascending within a shard) is
// byte-identical at any worker count. Recording must never perturb results:
// the recorder's own timer events are self-counted (TimerEvents) so scenarios
// can subtract them from Sim.Processed, and all emission sites are nil-guarded
// so a scenario without a recorder takes zero extra work.

// StartProbe builds the shard's recorder from a trace spec and returns it
// (nil when the spec is disabled). The scenario skeleton calls it right after
// Materialize and points every member's manager at it; families wire it into
// anything else they own (fault injectors, watchdogs).
func (sh *Shard) StartProbe(spec experiments.TraceSpec) *probe.Recorder {
	if !spec.Enabled() {
		return nil
	}
	sh.Probe = probe.NewRecorder(sh.Sim, sh.Lo, sh.Members(), spec.ProbeConfig())
	return sh.Probe
}

// probeEvents returns Sim.Processed minus the recorder's own sampler firings,
// so the "events" column a scenario reports is identical with and without the
// flight recorder attached.
func (sh *Shard) probeEvents() uint64 {
	return sh.Sim.Processed - sh.Probe.TimerEvents()
}
