package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/httpsim"
	"mptcpgo/internal/netem"
)

// CDNSpec describes the fleet-cdn scenario: a CDN-egress incast. Every
// client fetches one object at t=0 — a flash crowd — and while each client
// has its own access link, every download direction transits the origin's
// shared egress port. The shards' server replicas model one logical origin,
// so the egress rate is a fleet-global resource: the aggregate download rate
// saturates at the shared rate and the completion-time tail stretches with
// the crowd size, regardless of how the clients are sharded.
type CDNSpec struct {
	// Envelope's Deadline defaults to 60 s: a flash crowd that has not
	// drained by then is reported as failed, not hung.
	Envelope
	// Clients is the flash-crowd size.
	Clients int
	// ObjectSize is the bytes each client fetches (default 1 MB).
	ObjectSize int
	// Shared is the egress port every download transits (zero value =
	// "egress" at 200 Mbps, 100 ms epochs).
	Shared capacity.SharedLink
	// Weight gives client i's allocation weight on the egress (nil = equal).
	Weight func(i int) float64
	// Access configures each client's access link; zero selects a symmetric
	// 50 Mbps link with 10 ms one-way delay and 128 KB of buffering — fast
	// enough that the egress, not the access, is the bottleneck.
	Access netem.PathConfig
	// Conn is the client connection configuration (nil = MPTCP without
	// address advertisement, 128 KB buffers); Server configures the
	// replicas' listeners.
	Conn, Server *core.Config
}

func (s CDNSpec) withDefaults() CDNSpec {
	if s.ObjectSize <= 0 {
		s.ObjectSize = 1 << 20
	}
	if s.Shared.RateBps == 0 {
		s.Shared.RateBps = netem.Mbps(200)
	}
	if s.Shared.Name == "" {
		s.Shared.Name = "egress"
	}
	if s.Shared.Epoch == 0 {
		s.Shared.Epoch = capacity.DefaultEpoch
	}
	if s.Access == (netem.PathConfig{}) {
		s.Access = netem.SymmetricPath(netem.Mbps(50), 10*time.Millisecond, 128<<10, 0)
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
	if s.Deadline <= 0 {
		s.Deadline = 60 * time.Second
	}
	return s
}

// RunCDN executes the fleet-cdn scenario and returns the merged result,
// byte-identical at any worker count for a fixed spec.
func RunCDN(spec CDNSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	return run(scenario[completions]{
		env: spec.Envelope, id: "fleet-cdn", members: spec.Clients,
		title: fmt.Sprintf("CDN flash crowd through shared egress %s (%s)",
			spec.Shared.Name, capacity.FormatRate(spec.Shared.RateBps)),
		// Downloads flow server (B) to client (A): that direction shares the
		// origin's egress port.
		shared: &spec.Shared, weight: spec.Weight,
		host: clientHostName,
		graph: func(sh *Shard) netem.GraphSpec {
			return starGraph(sh, "server", clientHostName, func(gi int) (string, netem.PathConfig) {
				return fmt.Sprintf("access%d", gi), spec.Access
			})
		},
		start: func(sh *Shard) (shardWork[completions], error) {
			// Flash crowd: every client dials at t=0; the shared egress, not a
			// staggered start, decides who finishes when.
			return startPools(sh, *spec.Server, atZero, func(gi int, mgr *core.Manager, iface *netem.Interface, onDone func()) (*httpsim.ClientPool, error) {
				return httpsim.NewClientPool(mgr, httpsim.ClientPoolConfig{
					Clients:       1,
					TotalRequests: 1,
					TransferSize:  spec.ObjectSize,
					ServerAddr:    iface.Path().Peer(iface).Addr(),
					ServerPort:    80,
					Conn:          *spec.Conn,
					Iface:         iface,
					OnDone:        onDone,
				})
			}, func(pools []*httpsim.ClientPool) (completions, error) {
				var out completions
				for _, p := range pools {
					r := p.Result()
					out.finished += r.Completed
					out.failed += r.Failed
					out.bytes += r.BytesReceived
					out.times = append(out.times, p.LatencySamples()...)
				}
				return out, nil
			})
		},
		render: func(res *experiments.Result, parts []part[completions]) {
			renderCompletions(res, parts,
				fmt.Sprintf("%d clients × %sMB objects across %d shards, shared %s",
					spec.Clients, fmtMB(uint64(spec.ObjectSize)), len(parts), spec.Shared),
				"clients",
				fmt.Sprintf("flash crowd: every client dials at t=0 and every download transits shared egress %q — fleet goodput divides total bytes by the slowest completion and saturates at the egress rate",
					spec.Shared.Name),
				"goodput")
		},
	})
}
