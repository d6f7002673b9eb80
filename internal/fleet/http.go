package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/telemetry"
)

// HTTPClient is the resolved spec of one closed-loop client in an HTTP
// fleet: its access link, its request budget and its connection
// configuration. Specs are immutable once RunHTTP starts; shards read them
// concurrently.
type HTTPClient struct {
	// LinkName labels the client's access link in traces; defaults to
	// "access<i>".
	LinkName string
	// Link configures the client's access link (both directions mirrored when
	// BA is zero).
	Link netem.PathConfig
	// Requests is the client's closed-loop request budget (>= 1).
	Requests int
	// TransferSize is the response size the client requests.
	TransferSize int
	// Conn is the client's connection configuration.
	Conn core.Config
}

// HTTPSpec describes a fleet-http run: a pool of closed-loop clients, each on
// its own access link to a server, partitioned into shards that each own a
// server replica plus the shard's client hosts.
type HTTPSpec struct {
	Envelope
	// Clients lists the resolved per-client specs; the global client index is
	// the position in this slice.
	Clients []HTTPClient
	// Server is the listener configuration of every server replica (nil =
	// MPTCP-enabled default without address advertisement).
	Server *core.Config
	// Shared, when non-nil, couples every client's download direction to the
	// named shared bottleneck: the shards run in lock-stepped epoch windows
	// and jointly respect its rate. Nil keeps the shards free-running.
	Shared *capacity.SharedLink
	// Weight gives client i's allocation weight on the shared bottleneck
	// (nil = equal weights); ignored when Shared is nil.
	Weight func(i int) float64
	// LatencySampleCap bounds per-pool raw latency-sample retention (0 =
	// unlimited, today's exact behavior). When capped, merged latency
	// statistics come from the log-scale histograms instead of raw samples —
	// within histogram bucket resolution of the exact order statistics.
	LatencySampleCap int
}

// DefaultAccessLink derives the deterministic heterogeneous access link used
// by the stock fleet-http workload for global client index i: rates from 2 to
// 9.5 Mbps, RTTs from 10 to 190 ms, and ~250 ms of buffering — the
// manyclients example's link mix.
func DefaultAccessLink(i int) netem.PathConfig {
	rate := netem.Mbps(2 + 0.5*float64(i%16))
	return netem.SymmetricPath(rate,
		time.Duration(5+10*(i%10))*time.Millisecond,
		int(float64(rate)/8*0.250), 0)
}

// DefaultHTTPSpec builds the stock fleet-http workload: clients closed-loop
// clients on heterogeneous access links, requests MPTCP requests each for
// size-byte responses.
func DefaultHTTPSpec(seed uint64, clients, requests, size int) HTTPSpec {
	conn := core.DefaultConfig()
	// One access link per client: nothing useful for the server to advertise
	// back, and per-client buffers can stay modest.
	conn.AdvertiseAddresses = false
	conn.SendBufBytes = 128 << 10
	conn.RecvBufBytes = 128 << 10
	specs := make([]HTTPClient, clients)
	for i := range specs {
		specs[i] = HTTPClient{
			Link:         DefaultAccessLink(i),
			Requests:     requests,
			TransferSize: size,
			Conn:         conn,
		}
	}
	return HTTPSpec{Envelope: Envelope{Seed: seed}, Clients: specs}
}

func (s HTTPSpec) withDefaults() HTTPSpec {
	if s.Server == nil {
		srv := core.DefaultConfig()
		srv.AdvertiseAddresses = false
		s.Server = &srv
	}
	for i := range s.Clients {
		c := &s.Clients[i]
		if c.Requests <= 0 {
			c.Requests = 1
		}
		if c.TransferSize <= 0 {
			c.TransferSize = 64 << 10
		}
	}
	if s.Shared != nil {
		shared := *s.Shared
		if shared.Name == "" {
			shared.Name = capacity.DefaultName
		}
		if shared.Epoch == 0 {
			shared.Epoch = capacity.DefaultEpoch
		}
		s.Shared = &shared
	}
	return s
}

// clientHostName names the global client i's host; zero-padding keeps names
// aligned in traces regardless of fleet size.
func clientHostName(i int) string { return fmt.Sprintf("c%05d", i) }

// RunHTTP executes the fleet-http scenario and returns the merged result.
// The merged output is byte-identical at any worker count for a fixed
// (seed, clients, shards).
func RunHTTP(spec HTTPSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	title := "sharded closed-loop HTTP server workload"
	if spec.Shared != nil {
		title = fmt.Sprintf("sharded closed-loop HTTP through shared %s (%s)",
			spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps))
	}
	return run(scenario[PoolMerge]{
		env: spec.Envelope, id: "fleet-http", title: title, members: len(spec.Clients),
		shared: spec.Shared, weight: spec.Weight,
		host: clientHostName,
		graph: func(sh *Shard) netem.GraphSpec {
			return starGraph(sh, "server", clientHostName, func(gi int) (string, netem.PathConfig) {
				c := &spec.Clients[gi]
				if c.LinkName == "" {
					return fmt.Sprintf("access%d", gi), c.Link
				}
				return c.LinkName, c.Link
			})
		},
		start: func(sh *Shard) (shardWork[PoolMerge], error) {
			// Stagger starts by global index so the fleet-wide handshake herd
			// is spread out the same way regardless of the partition.
			stagger := func(gi int) time.Duration { return time.Duration(gi%97) * 127 * time.Microsecond }
			return startPools(sh, *spec.Server, stagger, func(gi int, mgr *core.Manager, iface *netem.Interface, onDone func()) (*httpsim.ClientPool, error) {
				c := &spec.Clients[gi]
				return httpsim.NewClientPool(mgr, httpsim.ClientPoolConfig{
					Clients:       1,
					TotalRequests: c.Requests,
					TransferSize:  c.TransferSize,
					ServerAddr:    iface.Path().Peer(iface).Addr(),
					ServerPort:    80,
					Conn:          c.Conn,
					Iface:         iface,
					OnDone:        onDone,
					SampleCap:     spec.LatencySampleCap,
				})
			}, func(pools []*httpsim.ClientPool) (PoolMerge, error) {
				var m PoolMerge
				for _, p := range pools {
					m.Add(p.Result(), p.LatencySamples(), p.LatencyHist(), p.Capped())
				}
				return m, nil
			})
		},
		render: func(res *experiments.Result, parts []part[PoolMerge]) {
			renderHTTP(res, parts, spec.Telemetry)
		},
	})
}

// renderHTTP renders the closed-loop table: one row per shard plus the
// fleet row, whose latency statistics come from the merged samples.
func renderHTTP(res *experiments.Result, parts []part[PoolMerge], plane *telemetry.Plane) {
	table := experiments.NewTable(
		fmt.Sprintf("%d closed-loop clients across %d shards", members(parts), len(parts)),
		"shard", "clients", "completed", "failed", "req/s", "mean ms", "p95 ms", "MB", "events")
	var total PoolMerge
	var totalEvents uint64
	rps := make([]float64, len(parts))
	p95 := make([]float64, len(parts))
	row := func(name string, clients int, r httpsim.PoolResult, events uint64) {
		table.AddRow(name, fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", r.Completed), fmt.Sprintf("%d", r.Failed),
			fmt.Sprintf("%.1f", r.RequestsPerSec), fmtMs(r.MeanLatency), fmtMs(r.P95Latency),
			fmtMB(r.BytesReceived), fmt.Sprintf("%d", events))
	}
	for i, p := range parts {
		r := p.out.Result()
		rps[i] = r.RequestsPerSec
		p95[i] = p.out.Percentile(95)
		row(fmt.Sprintf("%d", i), p.members, r, p.events)
		total.Merge(p.out)
		totalEvents += p.events
	}
	row("all", members(parts), total.Result(), totalEvents)
	res.AddTable(table)
	res.AddSeries(ShardSeries("req/s", "req/s", rps))
	res.AddSeries(ShardSeries("latency p95", "ms", p95))
	plane.SetLatency(total.Hist)
}

// members sums the parts' member counts: the fleet size.
func members[T any](parts []part[T]) int {
	n := 0
	for _, p := range parts {
		n += p.members
	}
	return n
}

// pool is the per-member workload the pool families (fleet-http, fleet-cdn,
// fleet-openloop, fleet-corelink) start on each client host.
type pool interface {
	Start()
	Progress() (done, offered int)
}

// atZero starts every member's pool at t=0.
func atZero(int) time.Duration { return 0 }

// startPools starts the shard's server replica and one pool per member:
// newPool builds member gi's pool on its access interface, and the pool
// starts at(gi) into the run. The shard has settled once every pool has
// called its onDone; collect folds the pools in member order.
func startPools[P pool, T any](sh *Shard, server core.Config, at func(gi int) time.Duration,
	newPool func(gi int, mgr *core.Manager, iface *netem.Interface, onDone func()) (P, error),
	collect func(pools []P) (T, error)) (shardWork[T], error) {
	if _, err := httpsim.StartServer(sh.Manager("server"), httpsim.ServerConfig{Port: 80, Conn: server}); err != nil {
		return shardWork[T]{}, err
	}
	remaining := sh.Members()
	pools := make([]P, 0, sh.Members())
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		mgr := sh.Manager(clientHostName(gi))
		p, err := newPool(gi, mgr, mgr.Host().Interfaces()[0], func() { remaining-- })
		if err != nil {
			return shardWork[T]{}, fmt.Errorf("fleet: shard %d member %d: %w", sh.Index, gi, err)
		}
		pools = append(pools, p)
		sh.Sim.Schedule(at(gi), p.Start)
	}
	return shardWork[T]{
		done: func() bool { return remaining == 0 },
		progress: func() (int64, int64) {
			var done, offered int64
			for _, p := range pools {
				d, o := p.Progress()
				done += int64(d)
				offered += int64(o)
			}
			return done, offered
		},
		collect: func() (T, error) { return collect(pools) },
	}, nil
}
