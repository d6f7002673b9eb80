package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/probe"
)

// runCoupled is the epoch-stepped counterpart of the free-running shard
// loop: it builds every shard first, then, instead of letting each shard
// free-run to its deadline, drives all of them through lock-stepped epoch
// windows of the coupler's length. Per window each shard (on the worker
// pool) applies its admitted rates, simulates exactly one epoch of virtual
// time, and reports the bytes its tagged links offered; at the barrier the
// coupler's deterministic allocator computes the next window's admitted
// rates.
//
// Worker-count invariance is preserved by construction: the barrier orders
// every Report before the Allocate that reads it, Report writes only
// shard-indexed slots, and the allocator iterates shards in index order — so
// the allocation sequence, and therefore every shard's simulation, depends
// only on (epoch, shard index, offered bytes), never on how shard steps
// interleave across workers.
func (sc *scenario[T]) runCoupled() ([]part[T], error) {
	env, descs := &sc.env, sc.descs
	if err := sc.shared.Validate(); err != nil {
		return nil, err
	}
	c, err := capacity.NewCoupler([]capacity.SharedLink{*sc.shared}, memberWeights(descs, sc.weight))
	if err != nil {
		return nil, err
	}
	if env.Telemetry != nil {
		c.Attach(env.Telemetry.Reg, env.Telemetry.Prof)
	}
	if env.Trace.Enabled() {
		// Epoch allocations are fleet-global; record them once, on the first
		// shard's recorder against its first member. They carry
		// shard-aggregate state, so they are part of the worker-count
		// byte-identity contract but not the shard-count one. The hook runs
		// on the allocator goroutine after the barrier's worker-pool join,
		// which orders it after every shard's build.
		c.OnEpoch = func(r capacity.EpochRecord) {
			rec := descs[0].Probe
			rec.Emit(rec.Lo(), probe.KindEpochAlloc, -1, int32(r.Link), int64(r.Epoch), int64(r.Bottlenecked))
			if r.Bottlenecked > 0 {
				rec.Count(rec.Lo(), probe.CtrEpochCongested, 1)
			}
		}
	}
	sc.coupler = c
	n := len(descs)
	sc.meters = make([]*capacity.Meter, n)
	works, err := experiments.SweepWorkers(n, env.Workers, func(i int) (shardWork[T], error) {
		return sc.build(&descs[i])
	})
	if err != nil {
		for i := range descs {
			descs[i].closeCapture()
		}
		return nil, err
	}

	// All shards share one plane, so any shard's profiler handle works for
	// the fleet-level barrier span (nil when telemetry is detached).
	prof := descs[0].Prof

	epoch := c.Epoch()
	allocs := c.Initial()
	for boundary := epoch; ; boundary += epoch {
		if boundary > env.Deadline {
			boundary = env.Deadline
		}
		end := boundary
		barrier := prof.Start("epoch-barrier")
		if _, err := experiments.SweepWorkers(n, env.Workers, func(i int) (struct{}, error) {
			sh := &descs[i]
			var wall time.Time
			if sh.Telem != nil {
				wall = time.Now()
			}
			sc.meters[i].Apply(allocs[sh.Index])
			if err := sh.Sim.RunUntil(end); err != nil {
				return struct{}{}, fmt.Errorf("fleet: shard %d: %w", sh.Index, err)
			}
			offered, sent := sc.meters[i].Collect()
			c.Report(sh.Index, offered, sent)
			if sh.Telem != nil {
				// Per-shard wall cost of this epoch window: the straggler gauge
				// behind the barrier.
				sh.Telem.EpochWallNs.Store(int64(time.Since(wall)))
				sh.publishTelemetry()
			}
			return struct{}{}, nil
		}); err != nil {
			return nil, err
		}
		barrier.End()
		// Barrier passed: every shard's Report for this window happened
		// before this Allocate (worker-pool join), so the allocation is a
		// pure function of the ledger.
		allocs = c.Allocate()
		if boundary >= env.Deadline || settled(works) {
			break
		}
	}

	return experiments.SweepWorkers(n, env.Workers, func(i int) (part[T], error) {
		defer descs[i].closeCapture()
		return sc.collect(&descs[i], works[i])
	})
}

// settled reports whether every shard's workload has settled; a
// fixed-duration workload never settles early.
func settled[T any](works []shardWork[T]) bool {
	for _, w := range works {
		if w.done == nil || !w.done() {
			return false
		}
	}
	return true
}

// meter builds a coupled shard's capacity meter over its tagged links. Link
// i of a shard graph belongs to member Lo+i, so the member weights index
// straight through.
func (sc *scenario[T]) meter(sh *Shard, g netem.GraphSpec) (*capacity.Meter, error) {
	var weightOf func(i int) float64
	if sc.weight != nil {
		lo := sh.Lo
		weightOf = func(i int) float64 { return sc.weight(lo + i) }
	}
	m, err := capacity.NewMeter(sc.coupler, sh.Net, g, weightOf)
	if err != nil {
		return nil, fmt.Errorf("fleet: shard %d: %w", sh.Index, err)
	}
	return m, nil
}

// memberWeights sums the per-member weights of each shard in the partition —
// the coupler's per-shard allocation weights. Weights depend only on the
// global member indices, so they are invariant across worker counts and,
// summed, consistent across shard counts.
func memberWeights(descs []Shard, weight func(i int) float64) []float64 {
	ws := make([]float64, len(descs))
	for i, d := range descs {
		if weight == nil {
			ws[i] = float64(d.Members())
			continue
		}
		for gi := d.Lo; gi < d.Hi; gi++ {
			ws[i] += weight(gi)
		}
	}
	return ws
}

// addCapacityReport appends the coupler's per-epoch capacity trace to a
// result: one summary row per shared link plus offered/through series over
// epochs. The trace is part of the deterministic merge — it depends only on
// (epoch, shard index, offered bytes) — so it rides the same byte-identity
// contract as the scenario tables.
func addCapacityReport(res *experiments.Result, c *capacity.Coupler) {
	links := c.Links()
	epochSec := c.Epoch().Seconds()
	table := experiments.NewTable(
		fmt.Sprintf("shared-link capacity exchange: %d epoch windows of %v", c.Epochs(), c.Epoch()),
		"link", "rate Mbps", "epochs", "offered Mbps", "through Mbps", "util %", "congested")
	for j, l := range links {
		var offered, sent uint64
		congested := 0
		perEpochOffered := make([]float64, 0, c.Epochs())
		perEpochThrough := make([]float64, 0, c.Epochs())
		for _, rec := range c.Trace() {
			if rec.Link != j {
				continue
			}
			offered += rec.OfferedBytes
			sent += rec.SentBytes
			if rec.Bottlenecked > 0 {
				congested++
			}
			perEpochOffered = append(perEpochOffered, float64(rec.OfferedBytes)*8/epochSec/1e6)
			perEpochThrough = append(perEpochThrough, float64(rec.SentBytes)*8/epochSec/1e6)
		}
		n := len(perEpochOffered)
		if n == 0 {
			continue
		}
		span := float64(n) * epochSec
		offMbps := float64(offered) * 8 / span / 1e6
		thruMbps := float64(sent) * 8 / span / 1e6
		table.AddRow(l.Name, fmt.Sprintf("%.2f", float64(l.RateBps)/1e6),
			fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", offMbps), fmt.Sprintf("%.2f", thruMbps),
			fmt.Sprintf("%.1f", thruMbps/(float64(l.RateBps)/1e6)*100),
			fmt.Sprintf("%d", congested))
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		res.AddSeries(experiments.Series{Name: l.Name + " offered", Unit: "Mbps", XLabel: "epoch", X: x, Y: perEpochOffered})
		res.AddSeries(experiments.Series{Name: l.Name + " through", Unit: "Mbps", XLabel: "epoch", X: x, Y: perEpochThrough})
	}
	table.AddNote("offered counts every byte presented to tagged directions (drops included: demand); through counts serialized bytes; congested counts epochs where at least one shard's demand exceeded its allocation")
	res.AddTable(table)
}
