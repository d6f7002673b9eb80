package fleet

import (
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/telemetry"
)

// Envelope is the run knobs and observers every scenario family shares.
// Every *Spec embeds it; the scenario skeleton (run) is the only code that
// reads it, apart from each family's own defaults.
type Envelope struct {
	// Seed is the root RNG seed; every shard derives its own seed from it.
	Seed uint64
	// Shards partitions the members (0 = one shard per
	// DefaultMembersPerShard members). The shard count is part of the
	// scenario; the worker count is not.
	Shards int
	// Workers bounds the parallel shard executions (0 = GOMAXPROCS; never
	// changes the output).
	Workers int
	// Deadline caps each shard's simulated time (0 = the family's default,
	// DefaultDeadline unless the family documents another).
	Deadline time.Duration
	// Label overrides the result title.
	Label string
	// Quick is recorded in the result metadata.
	Quick bool
	// PcapDir, when non-empty, captures every shard's wire traffic into
	// <PcapDir>/<CaptureName>-shard<NNN>.pcap (classic pcap, raw IPv4).
	// Capture never changes the merged result.
	PcapDir string
	// CaptureName is the file prefix of capture and trace files (default:
	// the scenario ID, e.g. "fleet-http").
	CaptureName string
	// Trace enables the flight recorder: typed events, per-member counters
	// and per-subflow samples written to <Trace.Dir>/<CaptureName>-trace.json
	// and -events.jsonl. Never changes the scenario's own result.
	Trace experiments.TraceSpec
	// Telemetry, when non-nil, attaches the run to a telemetry plane: live
	// shard progress cells, phase-profiler spans and, for the pool families,
	// the merged latency histogram. Attaching never changes the merged
	// result.
	Telemetry *telemetry.Plane
}

// scenario is what a family hands the skeleton: its identity, its members,
// the shard graph, the per-shard workload and the table renderer.
// Everything else — partition, capture, flight recorder, telemetry,
// stepping, shared-link coupling, merge and trace files — is the skeleton's.
type scenario[T any] struct {
	env Envelope
	// id is the result ID and the default CaptureName; title is the default
	// result title (Envelope.Label overrides it).
	id, title string
	members   int
	// shared, when non-nil, couples the shards: the download direction (B to
	// A) of every link in the shard graph transits this fleet-global link,
	// and the shards step in lock-stepped epoch windows. weight gives member
	// gi's allocation weight (nil = equal).
	shared *capacity.SharedLink
	weight func(gi int) float64
	// host names the host whose connections record as member gi.
	host func(gi int) string
	// graph declares the shard's hosts and links.
	graph func(sh *Shard) netem.GraphSpec
	// start builds the shard's workload on the materialized shard, after
	// capture, recorder and telemetry are attached.
	start func(sh *Shard) (shardWork[T], error)
	// render folds the shard parts, in shard order, into the result's tables
	// and series. It runs inside the merge span.
	render func(res *experiments.Result, parts []part[T])

	// descs is the executed partition; coupler and meters (one per shard)
	// drive a coupled run. Set by shards.
	descs   []Shard
	coupler *capacity.Coupler
	meters  []*capacity.Meter
}

// shardWork is one shard's live workload between build and collect.
type shardWork[T any] struct {
	// done reports that the shard's workload has settled. Nil marks a
	// fixed-duration workload: the shard runs exactly to the deadline.
	done func() bool
	// progress reports live (done, offered) flow counts to telemetry; nil
	// publishes none.
	progress func() (done, offered int64)
	// collect finalizes the shard after its last step.
	collect func() (T, error)
}

// part is one shard's contribution to the merge: the family's collected
// output plus the counts every family reports.
type part[T any] struct {
	out     T
	members int
	// events counts simulator events, the flight recorder's own sampler
	// firings excluded, so traced and untraced runs report the same number.
	events uint64
	// segments counts the wire segments the shard's links serialized (the
	// numerator of BenchmarkFleetSegmentRate; no table reports it).
	segments uint64
}

// run executes the scenario and returns the merged result, byte-identical at
// any worker count for a fixed spec.
func run[T any](sc scenario[T]) (*experiments.Result, error) {
	parts, err := sc.shards()
	if err != nil {
		return nil, err
	}
	return sc.result(parts)
}

// shards partitions the members and runs every shard, returning the parts in
// shard order. A free-running shard builds, steps and collects inside one
// worker task, so a finished shard's simulation can be collected while others
// still run; a coupled run (shared != nil) builds every shard first and then
// drives them through epoch windows.
func (sc *scenario[T]) shards() ([]part[T], error) {
	if sc.env.Deadline <= 0 {
		sc.env.Deadline = DefaultDeadline
	}
	if sc.env.CaptureName == "" {
		sc.env.CaptureName = sc.id
	}
	descs, err := MakeShards(sc.env.Seed, sc.members, sc.env.Shards)
	if err != nil {
		return nil, err
	}
	sc.descs = descs
	if sc.shared != nil {
		return sc.runCoupled()
	}
	return experiments.SweepWorkers(len(descs), sc.env.Workers, func(i int) (part[T], error) {
		sh := &descs[i]
		defer sh.closeCapture()
		w, err := sc.build(sh)
		if err != nil {
			return part[T]{}, err
		}
		if err := sh.runTo(sc.env.Deadline, w.done); err != nil {
			return part[T]{}, err
		}
		p, err := sc.collect(sh, w)
		sh.release()
		return p, err
	})
}

// build materializes one shard, opens its observers and starts its workload,
// all inside the build-graph span.
func (sc *scenario[T]) build(sh *Shard) (shardWork[T], error) {
	span := sc.env.Telemetry.StartSpan("build-graph")
	defer span.End()
	g := sc.graph(sh)
	if sc.shared != nil {
		for i := range g.Links {
			g.Links[i].SharedBA = sc.shared.Name
		}
	}
	if err := sh.Materialize(g); err != nil {
		return shardWork[T]{}, err
	}
	if err := sh.StartCapture(sc.env.PcapDir, sc.env.CaptureName); err != nil {
		return shardWork[T]{}, err
	}
	if rec := sh.StartProbe(sc.env.Trace); rec != nil {
		for gi := sh.Lo; gi < sh.Hi; gi++ {
			sh.Manager(sc.host(gi)).SetProbe(rec, gi)
		}
	}
	sh.AttachTelemetry(sc.env.Telemetry)
	w, err := sc.start(sh)
	if err != nil {
		return shardWork[T]{}, err
	}
	sh.flows = w.progress
	if sc.coupler != nil {
		if sc.meters[sh.Index], err = sc.meter(sh, g); err != nil {
			return shardWork[T]{}, err
		}
	}
	sh.Probe.StartSampler(w.done)
	return w, nil
}

// collect finalizes one shard after its last step and closes its capture.
func (sc *scenario[T]) collect(sh *Shard, w shardWork[T]) (part[T], error) {
	p := part[T]{members: sh.Members(), events: sh.probeEvents(), segments: sh.SegmentsSent()}
	out, err := w.collect()
	if err != nil {
		return part[T]{}, err
	}
	p.out = out
	if err := sh.closeCapture(); err != nil {
		return part[T]{}, err
	}
	sh.FinishTelemetry()
	return p, nil
}

// result merges the parts in shard order inside the merge span and writes
// the flight recorder's files.
func (sc *scenario[T]) result(parts []part[T]) (*experiments.Result, error) {
	env := &sc.env
	title := env.Label
	if title == "" {
		title = sc.title
	}
	res := &experiments.Result{ID: sc.id, Title: title, Seed: env.Seed, Quick: env.Quick}
	span := env.Telemetry.StartSpan("merge")
	sc.render(res, parts)
	if sc.coupler != nil {
		addCapacityReport(res, sc.coupler)
	}
	span.End()
	if !env.Trace.Enabled() {
		return res, nil
	}
	recs := make([]*probe.Recorder, len(sc.descs))
	for i := range sc.descs {
		recs[i] = sc.descs[i].Probe
	}
	tr := experiments.BuildTraceResult(sc.id+"-trace", title+" (flight recorder)", env.Seed, env.Quick, recs)
	if err := experiments.WriteTraceFiles(env.Trace, env.CaptureName, tr, experiments.MergedEvents(recs)); err != nil {
		return nil, err
	}
	return res, nil
}

// starGraph declares the star most families run on: one hub host (the
// shard's server replica) and one link per member, from host(gi) to the hub.
func starGraph(sh *Shard, hub string, host func(gi int) string, link func(gi int) (string, netem.PathConfig)) netem.GraphSpec {
	g := netem.GraphSpec{}
	g.AddHost(hub)
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		name, cfg := link(gi)
		g.AddLink(netem.LinkSpec{Name: name, A: host(gi), B: hub, Config: cfg})
	}
	return g
}
