package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/trace"
)

// Latencies is a merged latency record: the raw per-request (or per-flow)
// latencies in milliseconds, in merge order, plus the log-scale histogram.
// Merging is deterministic as long as it runs in a stable order — the engine
// always merges pools in member order within a shard and shards in index
// order — and keeping the raw samples makes fleet percentiles weight
// requests, not shards.
type Latencies struct {
	Samples []float64
	// Hist is the merged log-scale latency histogram (always populated when
	// the pools carry one); Capped marks that at least one pool dropped raw
	// samples at its SampleCap, in which case latency statistics must come
	// from Hist.
	Hist   *telemetry.Histogram
	Capped bool
}

// add folds one pool's (or one shard's) latency record into the aggregate.
func (l *Latencies) add(samples []float64, hist *telemetry.Histogram, capped bool) {
	l.Samples = append(l.Samples, samples...)
	if hist.Count() > 0 {
		if l.Hist == nil {
			l.Hist = telemetry.NewLatencyHistogram()
		}
		if err := l.Hist.Merge(hist); err != nil {
			// All pool histograms share one constructor; a mismatch is a bug.
			panic(err)
		}
	}
	l.Capped = l.Capped || capped
}

// Percentile returns the merged latency percentile in milliseconds: the exact
// order statistic from the raw samples when retention was unlimited, the
// histogram quantile once any pool was capped.
func (l *Latencies) Percentile(p float64) float64 {
	if l.Capped {
		return l.Hist.Quantile(p)
	}
	return trace.Percentile(l.Samples, p)
}

// MeanLatencyMs returns the merged mean latency in milliseconds under the
// same raw-vs-histogram dispatch as Percentile.
func (l *Latencies) MeanLatencyMs() float64 {
	if l.Capped {
		return l.Hist.Mean()
	}
	return trace.Mean(l.Samples)
}

// PoolMerge folds httpsim.PoolResults (and their latency traces) into one
// aggregate, in the same stable order as Latencies.
type PoolMerge struct {
	Completed int
	Failed    int
	Bytes     uint64
	// Duration is the longest member window; with shards running concurrently
	// in the emulated fleet, the slowest member bounds the fleet wall-clock.
	Duration time.Duration
	Latencies
}

// Add folds one pool result and its latency samples into the aggregate.
func (m *PoolMerge) Add(r httpsim.PoolResult, samples []float64, hist *telemetry.Histogram, capped bool) {
	m.Completed += r.Completed
	m.Failed += r.Failed
	m.Bytes += r.BytesReceived
	if r.Duration > m.Duration {
		m.Duration = r.Duration
	}
	m.add(samples, hist, capped)
}

// Merge folds another aggregate (typically one shard's) into this one.
func (m *PoolMerge) Merge(other PoolMerge) {
	m.Add(httpsim.PoolResult{Completed: other.Completed, Failed: other.Failed,
		BytesReceived: other.Bytes, Duration: other.Duration},
		other.Samples, other.Hist, other.Capped)
}

// Result renders the aggregate as a PoolResult: counts and bytes are sums,
// the rate uses the merged window, and the latency statistics are recomputed
// from the merged samples (not averaged from per-shard statistics, which
// would weight shards instead of requests).
func (m *PoolMerge) Result() httpsim.PoolResult {
	res := httpsim.PoolResult{
		Completed:     m.Completed,
		Failed:        m.Failed,
		Duration:      m.Duration,
		BytesReceived: m.Bytes,
	}
	if m.Duration > 0 {
		res.RequestsPerSec = float64(m.Completed) / m.Duration.Seconds()
	}
	if m.Capped || len(m.Samples) > 0 {
		res.MeanLatency = time.Duration(m.MeanLatencyMs() * float64(time.Millisecond))
		res.P95Latency = time.Duration(m.Percentile(95) * float64(time.Millisecond))
	}
	return res
}

// completions is one shard's barrier-style outcome (incast, fleet-cdn):
// per-member completion times in member order, plus totals.
type completions struct {
	finished int
	failed   int
	bytes    uint64
	times    []float64 // ms
}

// renderCompletions renders the completion-time table incast and fleet-cdn
// share: per-shard and fleet rows with the slowest and p95 completion, and a
// goodput that divides the bytes by the slowest completion (the barrier).
func renderCompletions(res *experiments.Result, parts []part[completions], title, memberCol, note, goodputSeries string) {
	table := experiments.NewTable(title,
		"shard", memberCol, "finished", "failed", "MB", "slowest ms", "p95 ms", "goodput Mbps", "events")
	var all completions
	var members int
	var events uint64
	slowest := make([]float64, len(parts))
	goodput := make([]float64, len(parts))
	row := func(name string, members int, c *completions, events uint64) (float64, float64) {
		worst := trace.Max(c.times)
		rate := shardGoodputMbps(c.bytes, worst)
		table.AddRow(name, fmt.Sprintf("%d", members),
			fmt.Sprintf("%d", c.finished), fmt.Sprintf("%d", c.failed),
			fmtMB(c.bytes), fmt.Sprintf("%.2f", worst),
			fmt.Sprintf("%.2f", trace.Percentile(c.times, 95)),
			fmt.Sprintf("%.1f", rate), fmt.Sprintf("%d", events))
		return worst, rate
	}
	for i, p := range parts {
		slowest[i], goodput[i] = row(fmt.Sprintf("%d", i), p.members, &p.out, p.events)
		all.finished += p.out.finished
		all.failed += p.out.failed
		all.bytes += p.out.bytes
		all.times = append(all.times, p.out.times...)
		members += p.members
		events += p.events
	}
	row("all", members, &all, events)
	table.AddNote("%s", note)
	res.AddTable(table)
	res.AddSeries(ShardSeries("slowest completion", "ms", slowest))
	res.AddSeries(ShardSeries(goodputSeries, "Mbps", goodput))
}

// shardGoodputMbps is bytes transferred over the barrier window in Mbps.
func shardGoodputMbps(bytes uint64, slowestMs float64) float64 {
	if slowestMs <= 0 {
		return 0
	}
	return float64(bytes) * 8 / (slowestMs / 1e3) / 1e6
}

// ShardSeries builds a numeric series indexed by shard: X is the shard index,
// Y the per-shard value in shard order.
func ShardSeries(name, unit string, y []float64) experiments.Series {
	x := make([]float64, len(y))
	for i := range x {
		x[i] = float64(i)
	}
	return experiments.Series{Name: name, Unit: unit, XLabel: "shard", X: x, Y: y}
}

// fmtMs renders a duration as milliseconds with fixed precision, for table
// cells that must stay byte-stable across runs.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// fmtMB renders a byte count as megabytes with fixed precision.
func fmtMB(n uint64) string {
	return fmt.Sprintf("%.2f", float64(n)/(1<<20))
}
