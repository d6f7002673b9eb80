package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// IncastSpec describes the incast/fan-in scenario: many synchronized senders
// each push one fixed-size block to a single aggregator over the N-host star
// graph, the barrier-synchronized partition/aggregate pattern of datacenter
// storage and MapReduce shuffles. Shards partition the senders; each shard
// owns an aggregator replica.
type IncastSpec struct {
	Envelope
	// Senders is the total number of senders.
	Senders int
	// BlockSize is the bytes each sender transfers (default 256 KB).
	BlockSize int
	// Link configures each sender's access link to the aggregator; zero
	// selects a gigabit link with a shallow 64 KB queue.
	Link netem.PathConfig
	// Conn is the sender connection configuration; nil selects single-path
	// TCP (one link per sender, so multipath adds nothing).
	Conn *core.Config
}

func (s IncastSpec) withDefaults() IncastSpec {
	if s.BlockSize <= 0 {
		s.BlockSize = 256 << 10
	}
	if s.Link == (netem.PathConfig{}) {
		s.Link = netem.SymmetricPath(netem.Gbps(1), 100*time.Microsecond, 64<<10, 0)
	}
	if s.Conn == nil {
		conn := core.TCPOnlyConfig()
		conn.SendBufBytes = 256 << 10
		conn.RecvBufBytes = 256 << 10
		s.Conn = &conn
	}
	return s
}

func senderHostName(i int) string { return fmt.Sprintf("s%05d", i) }

// RunIncast executes the incast scenario and returns the merged result.
func RunIncast(spec IncastSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	return run(scenario[completions]{
		env: spec.Envelope, id: "incast", title: "synchronized fan-in to one aggregator",
		members: spec.Senders,
		host:    senderHostName,
		graph: func(sh *Shard) netem.GraphSpec {
			return starGraph(sh, "agg", senderHostName, func(gi int) (string, netem.PathConfig) {
				return fmt.Sprintf("fanin%d", gi), spec.Link
			})
		},
		start: func(sh *Shard) (shardWork[completions], error) { return startIncast(&spec, sh) },
		render: func(res *experiments.Result, parts []part[completions]) {
			renderCompletions(res, parts,
				fmt.Sprintf("%d senders × %s blocks across %d shards", spec.Senders, fmtMB(uint64(spec.BlockSize))+"MB", len(parts)),
				"senders",
				"completion time is per-sender block transfer time; fleet goodput divides total bytes by the slowest completion (the fan-in barrier)",
				"aggregate goodput")
		},
	})
}

// startIncast starts the shard's aggregator replica and dials every sender;
// all senders start at t=0, since the fan-in is barrier-synchronized, which
// is exactly what makes incast hard.
func startIncast(spec *IncastSpec, sh *Shard) (shardWork[completions], error) {
	out := &completions{}
	// The aggregator drains every connection; a sender's block counts as
	// complete the moment its last byte is delivered in order (the metric
	// incast cares about — not the later close handshake).
	aggCfg := *spec.Conn
	aggCfg.EnableMPTCP = true // accept MPTCP and plain-TCP senders alike
	if _, err := sh.Manager("agg").Listen(80, aggCfg, func(c *core.Connection) {
		received := 0
		completed := false
		c.OnReadable = func() {
			for {
				data := c.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
				out.bytes += uint64(len(data))
			}
			if !completed && received >= spec.BlockSize {
				completed = true
				out.finished++
				out.times = append(out.times, float64(sh.Sim.Now())/float64(time.Millisecond))
			}
			if c.EOF() {
				c.Close()
			}
		}
	}); err != nil {
		return shardWork[completions]{}, err
	}
	payload := make([]byte, 32<<10)
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		mgr := sh.Manager(senderHostName(gi))
		iface := mgr.Host().Interfaces()[0]
		conn, err := mgr.Dial(iface, packet.Endpoint{Addr: iface.Path().Peer(iface).Addr(), Port: 80}, *spec.Conn)
		if err != nil {
			return shardWork[completions]{}, fmt.Errorf("fleet: shard %d sender %d: %w", sh.Index, gi, err)
		}
		written := 0
		pump := func() {
			for written < spec.BlockSize {
				n := len(payload)
				if n > spec.BlockSize-written {
					n = spec.BlockSize - written
				}
				w := conn.Write(payload[:n])
				if w == 0 {
					return
				}
				written += w
			}
			conn.Close() // block fully queued: end the stream (DATA_FIN/FIN)
		}
		conn.OnEstablished = pump
		conn.OnWritable = pump
	}
	senders := sh.Members()
	return shardWork[completions]{
		done:     func() bool { return out.finished == senders },
		progress: func() (int64, int64) { return int64(out.finished), int64(senders) },
		collect: func() (completions, error) {
			out.failed = senders - out.finished // blocks still incomplete at the deadline
			return *out, nil
		},
	}, nil
}
