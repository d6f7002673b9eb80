package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mptcpgo"
)

// The three fleet workloads run through the facade's sharded scenarios: web
// (open-loop short flows), corelink (the same arrivals through one shared
// core link) and chaos (integrity-checked uploads under faults).

// setupSim is how far a setup pass runs the simulation: long enough to
// build every shard, short enough that building dominates the pass.
const setupSim = time.Millisecond

// chaosWatchdog is how long a chaos member may make no progress before the
// harness aborts it as stalled. The stock 2 s is shorter than RFC 6298
// backoff after three losses of one segment (0.2+0.4+0.8+1.6 s), which the
// 5% loss phase causes on some seeds; such a member completes once the loss
// ends, so 2 s would count a slow recovery as a failure.
const chaosWatchdog = 5 * time.Second

// chaosShards splits the chaos members into shards of 16. With the
// default shards of 64 there is one shard per worker, so a run lasts as long
// as its slower worker and any host load on one vCPU shows in wall time;
// with more shards than workers the workers balance the load.
const chaosShards = 8

func openLoop(sh shape, seed uint64, window time.Duration, shared bool) *mptcpgo.OpenLoop {
	ol := mptcpgo.NewOpenLoop(seed).
		Hosts(sh.WebHosts).
		Shards(sh.WebShards).
		Workers(workers()).
		Rate(sh.WebRate).
		SizeDist(sh.WebSizes).
		Window(window)
	if shared {
		ol.SharedBottleneck("core", sh.CoreMbps, nil)
	}
	return ol
}

func chaos(sh shape, seed uint64) *mptcpgo.Chaos {
	return mptcpgo.NewChaos(seed).
		Members(sh.ChaosMembers).
		TransferBytes(sh.ChaosBytes).
		Faults(sh.ChaosFaults).
		Adversary(sh.ChaosAdversary).
		WatchdogInterval(chaosWatchdog).
		Shards(chaosShards).
		Workers(workers())
}

// runOpenLoop runs web (shared=false) or corelink (shared=true).
func runOpenLoop(sh shape, seed uint64, obs *traceObs, shared bool) (*outcome, error) {
	start := time.Now()
	ol := openLoop(sh, seed, sh.WebWindow, shared)
	if obs != nil {
		ol.Telemetry(obs.telem).Trace(obs.dir, 0)
	}
	res, err := ol.Run()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if err := o.encodeResult(res, start); err != nil {
		return nil, err
	}
	if err := openLoopOutcome(res, sh.WebWindow, o); err != nil {
		return nil, err
	}
	if shared {
		t, err := findTable(res, "link", "rate Mbps", "epochs")
		if err != nil {
			return nil, err
		}
		if len(t.Rows) == 0 {
			return nil, fmt.Errorf("corelink: capacity table is empty")
		}
		epochs, err := ints(tableRows(t)[0], "epochs")
		if err != nil {
			return nil, err
		}
		o.counts["capacity.epochs"] = float64(epochs[0])
	}
	return o, nil
}

// openLoopOutcome checks flow conservation on every row of the open-loop
// table (offered = done + dropped + shed + failed + open) and fills o.
// Dropped and shed flows are the simulated network's answer to overload,
// so they lower the completed share without counting as program failures.
func openLoopOutcome(res *mptcpgo.Result, window time.Duration, o *outcome) error {
	t, err := findTable(res, "shard", "hosts", "offered", "done", "dropped", "shed", "failed", "open")
	if err != nil {
		return err
	}
	cols := []string{"offered", "done", "dropped", "shed", "failed", "open", "events"}
	var sum [7]int
	var all []int
	for _, row := range tableRows(t) {
		v, err := ints(row, cols...)
		if err != nil {
			return err
		}
		if v[0] != v[1]+v[2]+v[3]+v[4]+v[5] {
			return fmt.Errorf("%s: shard %s: offered %d != done %d + dropped %d + shed %d + failed %d + open %d",
				res.ID, row["shard"], v[0], v[1], v[2], v[3], v[4], v[5])
		}
		if row["shard"] == "all" {
			all = v
			continue
		}
		for i := range sum {
			sum[i] += v[i]
		}
	}
	if all == nil {
		return fmt.Errorf("%s: no \"all\" row", res.ID)
	}
	for i, c := range cols {
		if sum[i] != all[i] {
			return fmt.Errorf("%s: shards sum to %d %s, \"all\" row says %d", res.ID, sum[i], c, all[i])
		}
	}
	if all[0] == 0 {
		return fmt.Errorf("%s: no flows offered", res.ID)
	}
	allMap, err := allRow(t)
	if err != nil {
		return err
	}
	offeredMbps, err := strconv.ParseFloat(allMap["offered Mbps"], 64)
	if err != nil {
		return fmt.Errorf("%s: offered Mbps: %w", res.ID, err)
	}
	o.attempted = all[0]
	o.completed = all[1]
	o.failed = all[4] + all[5]
	o.payload = offeredMbps * 1e6 / 8 * window.Seconds()
	o.events = uint64(all[6])
	o.counts = map[string]float64{}
	return nil
}

func runChaos(sh shape, seed uint64, obs *traceObs) (*outcome, error) {
	start := time.Now()
	c := chaos(sh, seed)
	if obs != nil {
		c.Telemetry(obs.telem).Trace(obs.dir, 0)
	}
	res, err := c.Run()
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if err := o.encodeResult(res, start); err != nil {
		return nil, err
	}
	return o, chaosOutcome(res, sh.ChaosBytes, o)
}

// chaosOutcome checks that every member is classified and arrived intact,
// and fills o.
func chaosOutcome(res *mptcpgo.Result, transferBytes int, o *outcome) error {
	t, err := findTable(res, "shard", "members", "ok", "fallback", "stalled", "stallEp", "failed", "intact", "reinject")
	if err != nil {
		return err
	}
	var all []int
	for _, row := range tableRows(t) {
		v, err := ints(row, "members", "ok", "fallback", "stalled", "failed", "intact", "reinject", "events")
		if err != nil {
			return err
		}
		if v[0] != v[1]+v[2]+v[3]+v[4] {
			return fmt.Errorf("chaos: shard %s: %d members but ok %d + fallback %d + stalled %d + failed %d",
				row["shard"], v[0], v[1], v[2], v[3], v[4])
		}
		if v[5] != v[0] {
			return fmt.Errorf("chaos: shard %s: %d of %d members intact", row["shard"], v[5], v[0])
		}
		if row["shard"] == "all" {
			all = v
		}
	}
	if all == nil {
		return fmt.Errorf("chaos: no \"all\" row")
	}
	o.attempted = all[0]
	o.completed = all[1] + all[2]
	o.failed = all[3] + all[4]
	o.payload = float64(all[5]) * float64(transferBytes)
	o.events = uint64(all[7])
	o.counts = map[string]float64{"core.reinjections": float64(all[6])}
	return nil
}

// fleetSetup runs one untimed pass of a fleet workload with telemetry
// attached and the simulation cut to setupSim, and returns the build-graph
// phase summed over shards.
func fleetSetup(name string, sh shape, seed uint64) (time.Duration, error) {
	t := mptcpgo.NewTelemetry("perfbench-setup")
	defer t.Close()
	var err error
	switch name {
	case "web", "corelink":
		_, err = openLoop(sh, seed, setupSim, name == "corelink").Telemetry(t).Run()
	case "chaos":
		_, err = chaos(sh, seed).Deadline(setupSim).Telemetry(t).Run()
	default:
		err = fmt.Errorf("no setup pass for workload %q", name)
	}
	if err != nil {
		return 0, err
	}
	var b bytes.Buffer
	t.WritePrometheus(&b)
	s := phaseSeconds(b.String(), "build-graph")
	if s <= 0 {
		return 0, fmt.Errorf("%s: telemetry recorded no build-graph phase", name)
	}
	return time.Duration(s * 1e9), nil
}

// fleetTraceCounts reads the traced run's telemetry exposition and flight
// recorder counter registry into o.counts.
func fleetTraceCounts(obs *traceObs, traceFile string, o *outcome) error {
	var b bytes.Buffer
	obs.telem.WritePrometheus(&b)
	text := b.String()
	for metric, phase := range map[string]string{
		"fleet.build_graph_s":   "build-graph",
		"fleet.shard_step_s":    "shard-step",
		"fleet.epoch_barrier_s": "epoch-barrier",
		"fleet.merge_s":         "merge",
		"capacity.allocate_s":   "allocate",
	} {
		o.counts[metric] = phaseSeconds(text, phase)
	}
	// The coupled runner steps shards inside epoch-barrier windows instead
	// of shard-step spans; a window's wall time counts once per worker.
	o.counts["sim.step_s"] = o.counts["fleet.shard_step_s"]
	if o.counts["sim.step_s"] == 0 {
		o.counts["sim.step_s"] = o.counts["fleet.epoch_barrier_s"] * float64(workers())
	}
	o.counts["netem.segments"] = promSample(text, "fleet_segments_total", "")

	raw, err := os.ReadFile(filepath.Join(obs.dir, traceFile))
	if err != nil {
		return fmt.Errorf("flight recorder: %w", err)
	}
	var res mptcpgo.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("flight recorder %s: %w", traceFile, err)
	}
	t, err := findTable(&res, "member", "segments")
	if err != nil {
		return err
	}
	row, err := allRow(t)
	if err != nil {
		return err
	}
	v, err := ints(row, "rtos", "fast rtx", "drops", "reinject")
	if err != nil {
		return err
	}
	o.counts["tcp.retransmits"] = float64(v[0] + v[1])
	o.counts["netem.drops"] = float64(v[2])
	if _, ok := o.counts["core.reinjections"]; !ok {
		o.counts["core.reinjections"] = float64(v[3])
	}
	return nil
}
