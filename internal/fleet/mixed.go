package fleet

import (
	"fmt"
	"time"

	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/trace"
)

// MixedSpec describes the mixed-traffic scenario: a fleet of client/server
// pairs, each running one foreground MPTCP bulk flow over a WiFi+3G pair of
// links while plain-TCP background flows compete on the WiFi link — the
// "does MPTCP coexist with background TCP" question at fleet scale. Shards
// partition the pairs.
type MixedSpec struct {
	// Envelope's Deadline is set to Duration: every shard runs exactly that
	// long.
	Envelope
	// Pairs is the total number of client/server pairs.
	Pairs int
	// Background is the number of plain-TCP background flows per pair
	// (default 2), all competing on the WiFi link.
	Background int
	// Duration is the simulated run length (default 5s); Warmup is excluded
	// from goodput measurement (default Duration/5).
	Duration, Warmup time.Duration
}

func (s MixedSpec) withDefaults() MixedSpec {
	if s.Background <= 0 {
		s.Background = 2
	}
	if s.Duration <= 0 {
		s.Duration = 5 * time.Second
	}
	if s.Warmup <= 0 || s.Warmup >= s.Duration {
		s.Warmup = s.Duration / 5
	}
	s.Deadline = s.Duration
	return s
}

// mixedShardOut carries one shard's per-pair goodputs (pair order).
type mixedShardOut struct {
	fgMbps []float64 // foreground MPTCP goodput per pair
	bgMbps []float64 // aggregate background TCP goodput per pair
}

func mixedClient(i int) string { return fmt.Sprintf("cli%05d", i) }

// RunMixed executes the mixed-traffic scenario and returns the merged result.
func RunMixed(spec MixedSpec) (*experiments.Result, error) {
	spec = spec.withDefaults()
	return run(scenario[mixedShardOut]{
		env: spec.Envelope, id: "mixed", title: "MPTCP foreground vs plain-TCP background traffic",
		members: spec.Pairs,
		host:    mixedClient,
		graph: func(sh *Shard) netem.GraphSpec {
			// Each pair is its own WiFi+3G island inside the shard simulator.
			g := netem.GraphSpec{}
			wifi := netem.WiFi3GSpec()[0].Config
			threeG := netem.WiFi3GSpec()[1].Config
			for gi := sh.Lo; gi < sh.Hi; gi++ {
				cli, srv := mixedClient(gi), fmt.Sprintf("srv%05d", gi)
				g.AddLink(netem.LinkSpec{Name: fmt.Sprintf("wifi%d", gi), A: cli, B: srv, Config: wifi})
				g.AddLink(netem.LinkSpec{Name: fmt.Sprintf("3g%d", gi), A: cli, B: srv, Config: threeG})
			}
			return g
		},
		start:  func(sh *Shard) (shardWork[mixedShardOut], error) { return startMixed(&spec, sh) },
		render: func(res *experiments.Result, parts []part[mixedShardOut]) { renderMixed(res, parts, spec.Background) },
	})
}

func renderMixed(res *experiments.Result, parts []part[mixedShardOut], background int) {
	table := experiments.NewTable(
		fmt.Sprintf("%d WiFi+3G pairs, %d background TCP flows each, across %d shards",
			members(parts), background, len(parts)),
		"shard", "pairs", "fg Mbps (mean)", "bg Mbps (mean)", "fg share %", "events")
	var allFg, allBg []float64
	var events uint64
	fgSeries := make([]float64, len(parts))
	bgSeries := make([]float64, len(parts))
	for i, p := range parts {
		fgSeries[i] = trace.Mean(p.out.fgMbps)
		bgSeries[i] = trace.Mean(p.out.bgMbps)
		table.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%d", p.members),
			fmt.Sprintf("%.2f", fgSeries[i]), fmt.Sprintf("%.2f", bgSeries[i]),
			fmt.Sprintf("%.1f", shareP(fgSeries[i], bgSeries[i])),
			fmt.Sprintf("%d", p.events))
		allFg = append(allFg, p.out.fgMbps...)
		allBg = append(allBg, p.out.bgMbps...)
		events += p.events
	}
	fgMean, bgMean := trace.Mean(allFg), trace.Mean(allBg)
	table.AddRow("all", fmt.Sprintf("%d", members(parts)),
		fmt.Sprintf("%.2f", fgMean), fmt.Sprintf("%.2f", bgMean),
		fmt.Sprintf("%.1f", shareP(fgMean, bgMean)), fmt.Sprintf("%d", events))
	table.AddNote("fg = one MPTCP bulk flow over WiFi+3G; bg = aggregate of the plain-TCP flows sharing the WiFi link; the coupled controller should leave the background flows their fair share of WiFi while the foreground adds 3G capacity")
	res.AddTable(table)
	res.AddSeries(ShardSeries("foreground goodput", "Mbps", fgSeries))
	res.AddSeries(ShardSeries("background goodput", "Mbps", bgSeries))
}

func shareP(fg, bg float64) float64 {
	if fg+bg <= 0 {
		return 0
	}
	return 100 * fg / (fg + bg)
}

// startMixed starts the shard's pairs — one foreground MPTCP and Background
// plain-TCP bulk flows each — and measures per-pair goodput over the
// post-warmup window. The workload never settles: the shard runs for the
// whole Duration.
func startMixed(spec *MixedSpec, sh *Shard) (shardWork[mixedShardOut], error) {
	n := sh.Members()
	fgBytes := make([]uint64, n)
	bgBytes := make([]uint64, n)

	fgCfg := core.DefaultConfig()
	fgCfg.SendBufBytes = 256 << 10
	fgCfg.RecvBufBytes = 256 << 10
	bgCfg := core.TCPOnlyConfig()
	bgCfg.SendBufBytes = 128 << 10
	bgCfg.RecvBufBytes = 128 << 10

	payload := make([]byte, 16<<10)
	for gi := sh.Lo; gi < sh.Hi; gi++ {
		rel := gi - sh.Lo
		cliMgr := sh.Manager(mixedClient(gi))
		srvMgr := sh.Manager(fmt.Sprintf("srv%05d", gi))
		wifiIface := cliMgr.Host().Interfaces()[0]
		remote := packet.Endpoint{Addr: wifiIface.Path().Peer(wifiIface).Addr(), Port: 80}

		counter := func(dst *uint64) core.AcceptCallback {
			return func(c *core.Connection) {
				c.OnReadable = func() {
					for {
						data := c.Read(64 << 10)
						if len(data) == 0 {
							break
						}
						*dst += uint64(len(data))
					}
				}
			}
		}
		if _, err := srvMgr.Listen(80, fgCfg, counter(&fgBytes[rel])); err != nil {
			return shardWork[mixedShardOut]{}, err
		}
		if _, err := srvMgr.Listen(81, bgCfg, counter(&bgBytes[rel])); err != nil {
			return shardWork[mixedShardOut]{}, err
		}

		dialBulk := func(cfg core.Config, port uint16) error {
			conn, err := cliMgr.Dial(wifiIface, packet.Endpoint{Addr: remote.Addr, Port: port}, cfg)
			if err != nil {
				return err
			}
			pump := func() {
				for conn.Write(payload) > 0 {
				}
			}
			conn.OnEstablished = pump
			conn.OnWritable = pump
			return nil
		}
		if err := dialBulk(fgCfg, 80); err != nil {
			return shardWork[mixedShardOut]{}, fmt.Errorf("fleet: shard %d pair %d: %w", sh.Index, gi, err)
		}
		for b := 0; b < spec.Background; b++ {
			if err := dialBulk(bgCfg, 81); err != nil {
				return shardWork[mixedShardOut]{}, fmt.Errorf("fleet: shard %d pair %d bg %d: %w", sh.Index, gi, b, err)
			}
		}
	}

	// Snapshot at warmup, measure until Duration.
	fgBase := make([]uint64, n)
	bgBase := make([]uint64, n)
	sh.Sim.Schedule(spec.Warmup, func() {
		copy(fgBase, fgBytes)
		copy(bgBase, bgBytes)
	})
	return shardWork[mixedShardOut]{collect: func() (mixedShardOut, error) {
		window := (spec.Duration - spec.Warmup).Seconds()
		out := mixedShardOut{fgMbps: make([]float64, n), bgMbps: make([]float64, n)}
		for i := 0; i < n; i++ {
			out.fgMbps[i] = float64(fgBytes[i]-fgBase[i]) * 8 / window / 1e6
			out.bgMbps[i] = float64(bgBytes[i]-bgBase[i]) * 8 / window / 1e6
		}
		return out, nil
	}}, nil
}
