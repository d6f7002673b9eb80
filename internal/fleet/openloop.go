package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/workload"
)

// openLoopStream offsets the DeriveSeed stream indices used for per-host
// workload RNGs, keeping them disjoint from the shard-seed stream space
// (shard seeds use stream = shard index).
const openLoopStream = 0x0517_0000

// OpenLoopSpec describes the fleet-openloop scenario: an open-loop HTTP
// workload where a fleet-wide arrival process injects flows across Hosts
// client hosts (each on its own access link to a sharded server replica),
// every flow fetches a size drawn from Sizes, and flows that outlive
// FlowDeadline are dropped. Because arrivals never wait for completions, the
// offered load is a free parameter — rates past the fleet's capacity produce
// measurable overload (rising latency tails, drops, unfinished flows)
// instead of the closed-loop pools' self-limiting slowdown.
//
// Determinism by thinning: the root Arrival process is split host-by-host —
// host i draws from Arrival.Thin(1/Hosts) using an RNG derived from
// (Seed, openLoopStream+i) — so the offered schedule depends only on the
// spec, never on the shard partition or worker scheduling.
type OpenLoopSpec struct {
	// Envelope's Deadline defaults to Window + FlowDeadline + 5s — past that
	// point every flow has settled.
	Envelope
	// Hosts is the number of client hosts (arrival points).
	Hosts int
	// Arrival is the fleet-wide arrival process (nil = Poisson at 100/s).
	Arrival workload.ArrivalProcess
	// Sizes draws per-flow transfer sizes (nil = the empirical web mix).
	Sizes workload.SizeDist
	// Window is the arrival window (default 5s of simulated time).
	Window time.Duration
	// FlowDeadline drops flows that have not completed this long after
	// arrival (default 10s; <0 disables dropping).
	FlowDeadline time.Duration
	// MaxInFlightPerHost sheds arrivals beyond this many concurrent flows on
	// one host (0 = unlimited).
	MaxInFlightPerHost int
	// Link derives host i's access link (nil = DefaultAccessLink).
	Link func(i int) netem.PathConfig
	// Conn is the per-flow connection configuration (nil = the fleet-http
	// default: MPTCP without address advertisement, 128 KB buffers).
	Conn *core.Config
	// Server is the listener configuration of every server replica.
	Server *core.Config
	// LatencySampleCap bounds per-pool raw latency-sample retention (0 =
	// unlimited, today's exact behavior); capped runs report latency from the
	// log-scale histograms.
	LatencySampleCap int
}

// DefaultOpenLoopSpec builds the stock fleet-openloop workload: hosts client
// hosts on the heterogeneous access mix, Poisson arrivals at rate flows/s
// fleet-wide, web-mix flow sizes.
func DefaultOpenLoopSpec(seed uint64, hosts int, rate float64, window time.Duration) OpenLoopSpec {
	return OpenLoopSpec{
		Envelope: Envelope{Seed: seed},
		Hosts:    hosts,
		Arrival:  workload.Poisson(rate),
		Sizes:    workload.WebMix(),
		Window:   window,
	}
}

func (s OpenLoopSpec) withDefaults() OpenLoopSpec {
	if s.Arrival == nil {
		s.Arrival = workload.Poisson(100)
	}
	if s.Sizes == nil {
		s.Sizes = workload.WebMix()
	}
	if s.Window <= 0 {
		s.Window = 5 * time.Second
	}
	if s.FlowDeadline == 0 {
		s.FlowDeadline = 10 * time.Second
	}
	if s.FlowDeadline < 0 {
		s.FlowDeadline = 0
	}
	if s.Deadline <= 0 {
		s.Deadline = s.Window + s.FlowDeadline + 5*time.Second
		if s.FlowDeadline == 0 {
			s.Deadline = DefaultDeadline
		}
	}
	if s.Conn == nil {
		conn := core.DefaultConfig()
		conn.AdvertiseAddresses = false
		conn.SendBufBytes = 128 << 10
		conn.RecvBufBytes = 128 << 10
		s.Conn = &conn
	}
	if s.Server == nil {
		srv := core.DefaultConfig()
		srv.AdvertiseAddresses = false
		s.Server = &srv
	}
	return s
}

// openLoopMerge folds httpsim.OpenLoopResults deterministically (host order
// within a shard, shard order across the fleet), keeping raw latency samples
// so fleet percentiles weight flows, not shards.
type openLoopMerge struct {
	offered      int
	offeredBytes uint64
	completed    int
	bytes        uint64
	dropped      int
	shed         int
	failed       int
	unfinished   int
	window       time.Duration
	elapsed      time.Duration
	Latencies
}

func (m *openLoopMerge) add(r httpsim.OpenLoopResult, samples []float64, hist *telemetry.Histogram, capped bool) {
	m.offered += r.Offered
	m.offeredBytes += r.OfferedBytes
	m.completed += r.Completed
	m.bytes += r.BytesReceived
	m.dropped += r.Dropped
	m.shed += r.Shed
	m.failed += r.Failed
	m.unfinished += r.Unfinished
	if r.Window > m.window {
		m.window = r.Window
	}
	if r.Elapsed > m.elapsed {
		m.elapsed = r.Elapsed
	}
	m.Latencies.add(samples, hist, capped)
}

func (m *openLoopMerge) merge(o openLoopMerge) {
	m.add(httpsim.OpenLoopResult{Offered: o.offered, OfferedBytes: o.offeredBytes, Completed: o.completed,
		BytesReceived: o.bytes, Dropped: o.dropped, Shed: o.shed, Failed: o.failed, Unfinished: o.unfinished,
		Window: o.window, Elapsed: o.elapsed}, o.Samples, o.Hist, o.Capped)
}

// offeredMbps is the injected load over the arrival window.
func (m *openLoopMerge) offeredMbps() float64 {
	if m.window <= 0 {
		return 0
	}
	return float64(m.offeredBytes) * 8 / m.window.Seconds() / 1e6
}

// goodputMbps is the delivered load over the slowest member's window (the
// fleet-level elapsed time).
func (m *openLoopMerge) goodputMbps() float64 {
	if m.elapsed <= 0 {
		return 0
	}
	return float64(m.bytes) * 8 / m.elapsed.Seconds() / 1e6
}

// RunOpenLoop executes the fleet-openloop scenario and returns the merged
// result, byte-identical at any worker count for a fixed spec.
func RunOpenLoop(spec OpenLoopSpec) (*experiments.Result, error) {
	return run(openLoopScenario(spec.withDefaults()))
}

// openLoopScenario is the free-running fleet-openloop scenario; the
// fleet-corelink scenario is the same workload with a shared link, ID, title
// and table header of its own.
func openLoopScenario(spec OpenLoopSpec) scenario[openLoopMerge] {
	return scenario[openLoopMerge]{
		env: spec.Envelope, id: "fleet-openloop", members: spec.Hosts,
		title: fmt.Sprintf("open-loop HTTP workload: %s arrivals, %s sizes",
			spec.Arrival.Name(), spec.Sizes.Name()),
		host: clientHostName,
		graph: func(sh *Shard) netem.GraphSpec {
			return starGraph(sh, "server", clientHostName, func(gi int) (string, netem.PathConfig) {
				if spec.Link != nil {
					return fmt.Sprintf("access%d", gi), spec.Link(gi)
				}
				return fmt.Sprintf("access%d", gi), DefaultAccessLink(gi)
			})
		},
		start: func(sh *Shard) (shardWork[openLoopMerge], error) {
			return startOpenLoopPools(&spec, sh)
		},
		render: func(res *experiments.Result, parts []part[openLoopMerge]) {
			renderOpenLoop(res, parts, spec.Telemetry,
				fmt.Sprintf("%d arrival hosts across %d shards, %v window", spec.Hosts, len(parts), spec.Window),
				fmt.Sprintf("open-loop: arrivals are injected by the process regardless of completions; dropped = hit the %v flow deadline, shed = refused at the in-flight cap, open = still in flight at the simulation deadline", spec.FlowDeadline))
		},
	}
}

// startOpenLoopPools starts one open-loop pool per host, each drawing from
// its thinned arrival stream.
func startOpenLoopPools(spec *OpenLoopSpec, sh *Shard) (shardWork[openLoopMerge], error) {
	fraction := 1 / float64(spec.Hosts)
	// All pools start at t=0: the arrival processes themselves spread the
	// load (their first gaps differ per host stream).
	return startPools(sh, *spec.Server, atZero, func(gi int, mgr *core.Manager, iface *netem.Interface, onDone func()) (*httpsim.OpenLoopPool, error) {
		return httpsim.NewOpenLoopPool(mgr, httpsim.OpenLoopConfig{
			Arrival:      spec.Arrival.Thin(fraction),
			Sizes:        spec.Sizes,
			Rng:          sim.NewRNG(sim.DeriveSeed(spec.Seed, openLoopStream+uint64(gi))),
			Window:       spec.Window,
			FlowDeadline: spec.FlowDeadline,
			MaxInFlight:  spec.MaxInFlightPerHost,
			ServerAddr:   iface.Path().Peer(iface).Addr(),
			ServerPort:   80,
			Conn:         *spec.Conn,
			Iface:        iface,
			OnDone:       onDone,
			SampleCap:    spec.LatencySampleCap,
		})
	}, func(pools []*httpsim.OpenLoopPool) (openLoopMerge, error) {
		var m openLoopMerge
		for _, p := range pools {
			m.add(p.Result(), p.LatencySamples(), p.LatencyHist(), p.Capped())
		}
		if sh.Probe != nil {
			// Fold each host's access-link wire drops into its counter registry.
			for gi := sh.Lo; gi < sh.Hi; gi++ {
				pa := sh.Net.Paths[gi-sh.Lo]
				sa, sb := pa.LinkAB().Stats(), pa.LinkBA().Stats()
				sh.Probe.Count(gi, probe.CtrDrops, sa.DroppedQueue+sa.DroppedRandom+sb.DroppedQueue+sb.DroppedRandom)
			}
		}
		return m, nil
	})
}

// renderOpenLoop renders the open-loop table fleet-openloop and
// fleet-corelink share: flow conservation, offered and delivered load, and
// latency percentiles per shard and for the fleet.
func renderOpenLoop(res *experiments.Result, parts []part[openLoopMerge], plane *telemetry.Plane, title, note string) {
	table := experiments.NewTable(title,
		"shard", "hosts", "offered", "done", "dropped", "shed", "failed", "open",
		"offered Mbps", "goodput Mbps", "p50 ms", "p99 ms", "events")
	var total openLoopMerge
	var totalEvents uint64
	goodput := make([]float64, len(parts))
	p99 := make([]float64, len(parts))
	row := func(name string, hosts int, m *openLoopMerge, events uint64) (float64, float64) {
		g, p := m.goodputMbps(), m.Percentile(99)
		table.AddRow(name, fmt.Sprintf("%d", hosts),
			fmt.Sprintf("%d", m.offered), fmt.Sprintf("%d", m.completed),
			fmt.Sprintf("%d", m.dropped), fmt.Sprintf("%d", m.shed),
			fmt.Sprintf("%d", m.failed), fmt.Sprintf("%d", m.unfinished),
			fmt.Sprintf("%.2f", m.offeredMbps()), fmt.Sprintf("%.2f", g),
			fmt.Sprintf("%.2f", m.Percentile(50)),
			fmt.Sprintf("%.2f", p), fmt.Sprintf("%d", events))
		return g, p
	}
	for i, p := range parts {
		goodput[i], p99[i] = row(fmt.Sprintf("%d", i), p.members, &p.out, p.events)
		total.merge(p.out)
		totalEvents += p.events
	}
	row("all", members(parts), &total, totalEvents)
	table.AddNote("%s", note)
	res.AddTable(table)
	res.AddSeries(ShardSeries("goodput", "Mbps", goodput))
	res.AddSeries(ShardSeries("latency p99", "ms", p99))
	plane.SetLatency(total.Hist)
}
