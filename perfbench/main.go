// Command perfbench is the repository benchmark: it runs one workload
// (bulk, web, chaos or corelink) from a seed for a fixed wall-clock budget,
// checks the outputs, and prints end-to-end metrics from untraced runs or,
// with -trace 1, per-layer metrics from one traced run. The last line of
// standard output is the JSON result; see README.md for every metric.
//
//	go run . -workload web -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"mptcpgo"
)

// shape sizes every workload; fullShape is the benchmark's, tests use a
// reduced one.
type shape struct {
	BulkClients int
	BulkSim     time.Duration

	WebHosts, WebShards int
	WebRate             float64
	WebSizes            string
	WebWindow           time.Duration
	CoreMbps            float64

	ChaosMembers, ChaosBytes    int
	ChaosFaults, ChaosAdversary string

	// SetupPasses is how many untimed setup passes a fleet run makes;
	// bulk set-up is cheap, so it makes BulkSetupPasses.
	SetupPasses, BulkSetupPasses int
}

var fullShape = shape{
	BulkClients: 4,
	BulkSim:     time.Second,

	WebHosts:  512,
	WebShards: 8,
	WebRate:   2000,
	WebSizes:  "lognormal:8.3,1.0",
	WebWindow: 8 * time.Second,
	CoreMbps:  55,

	ChaosMembers:   128,
	ChaosBytes:     384 << 10,
	ChaosFaults:    "flap:path=1,period=500ms,down=120ms,at=250ms;loss:path=0,rate=0.05,at=1s,dur=3s",
	ChaosAdversary: "police",

	SetupPasses:     51,
	BulkSetupPasses: 201,
}

// traceObs carries the observers of a traced run; nil means untraced.
// Bulk runs time their layer boundaries into spans; fleet runs attach the
// telemetry plane and write the flight recorder's files into dir.
type traceObs struct {
	spans *bulkSpans
	dir   string
	telem *mptcpgo.Telemetry
}

type workload struct {
	run   func(sh shape, seed uint64, obs *traceObs) (*outcome, error)
	setup func(sh shape, seed uint64) (time.Duration, error)
	// traceFile is the flight recorder's counter file; only the sharded
	// fleet workloads have one.
	traceFile string
}

func (w workload) fleet() bool { return w.traceFile != "" }

var workloads = map[string]workload{
	"bulk": {run: runBulk, setup: bulkSetup},
	"web": {
		run: func(sh shape, seed uint64, obs *traceObs) (*outcome, error) {
			return runOpenLoop(sh, seed, obs, false)
		},
		setup:     func(sh shape, seed uint64) (time.Duration, error) { return fleetSetup("web", sh, seed) },
		traceFile: "fleet-openloop-trace.json",
	},
	"corelink": {
		run: func(sh shape, seed uint64, obs *traceObs) (*outcome, error) {
			return runOpenLoop(sh, seed, obs, true)
		},
		setup:     func(sh shape, seed uint64) (time.Duration, error) { return fleetSetup("corelink", sh, seed) },
		traceFile: "fleet-corelink-trace.json",
	},
	"chaos": {
		run:       runChaos,
		setup:     func(sh shape, seed uint64) (time.Duration, error) { return fleetSetup("chaos", sh, seed) },
		traceFile: "fleet-chaos-trace.json",
	},
}

// workers is the fleet worker count: one per CPU.
func workers() int { return runtime.NumCPU() }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"wall_s", "s"},
	{"sim_payload_Bps", "B/s"},
	{"flows_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_heap_bytes", "B"},
	{"completed_share", "ratio"},
}

func perLayerMetrics() []metricDef {
	defs := make([]metricDef, 0, len(profileLayers)+32)
	for _, l := range profileLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	return append(defs,
		metricDef{"profile.samples", "count"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"netem.segments", "count"},
		metricDef{"netem.segments_per_s", "1/s"},
		metricDef{"netem.send_ns", "ns"},
		metricDef{"netem.drops", "count"},
		metricDef{"tcp.retransmits", "count"},
		metricDef{"tcp.retransmit_ratio", "ratio"},
		metricDef{"core.write_ns_per_KB", "ns/KB"},
		metricDef{"core.read_ns_per_KB", "ns/KB"},
		metricDef{"core.reinjections", "count"},
		metricDef{"pool.miss_ratio", "ratio"},
		metricDef{"capacity.allocate_s", "s"},
		metricDef{"capacity.epochs", "count"},
		metricDef{"fleet.build_graph_s", "s"},
		metricDef{"fleet.shard_step_s", "s"},
		metricDef{"fleet.epoch_barrier_s", "s"},
		metricDef{"fleet.merge_s", "s"},
		metricDef{"fleet.parallel_efficiency", "ratio"},
		metricDef{"experiments.encode_s", "s"},
		metricDef{"runtime.alloc_bytes", "B"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_cpu_share", "ratio"},
		metricDef{"trace_overhead", "ratio"},
	)
}

// minReps is the fewest timed runs an untraced measurement makes.
const minReps = 3

// runInfo is what one invocation learned besides its metrics.
type runInfo struct {
	hash      string
	reps      []*outcome // timed untraced runs, in run order
	attempted int
	failed    int
}

// rep runs the workload once from a collected heap, recording the peak live
// heap of the run in its outcome.
func rep(w workload, sh shape, seed uint64, obs *traceObs) (*outcome, error) {
	runtime.GC()
	hs := startHeapSampler()
	o, err := w.run(sh, seed, obs)
	peak := hs.Stop()
	if err != nil {
		return nil, err
	}
	o.peakHeap = float64(peak)
	return o, nil
}

// timedReps runs untraced reps until budget has passed (at least min), after
// a warm-up rep whose Result every later rep must reproduce byte for byte.
func timedReps(w workload, sh shape, seed uint64, budget time.Duration, min int, info *runInfo,
	setup func() error) error {
	ref, err := rep(w, sh, seed, nil)
	if err != nil {
		return err
	}
	info.hash = ref.hash()
	if setup != nil {
		if err := setup(); err != nil {
			return err
		}
	}
	var cals []time.Duration
	for start := time.Now(); len(info.reps) < min || time.Since(start) < budget; {
		cals = append(cals, calibrate())
		o, err := rep(w, sh, seed, nil)
		if err != nil {
			return err
		}
		if h := o.hash(); h != info.hash {
			return fmt.Errorf("result_sha256 differs between runs of one seed: %s then %s", info.hash, h)
		}
		info.reps = append(info.reps, o)
		info.attempted += o.attempted
		info.failed += o.failed
	}
	// Each rep is scaled by the kernel timed on either side of it, so the
	// machine speed it is scaled by is the one it ran at.
	cals = append(cals, calibrate())
	for i, o := range info.reps {
		o.cal = (cals[i] + cals[i+1]) / 2
	}
	return nil
}

func endToEnd(w workload, sh shape, seed uint64, budget time.Duration, info *runInfo) (map[string]float64, error) {
	var setups []float64
	err := timedReps(w, sh, seed, budget, minReps, info, func() error {
		for i := 0; i < passes(w, sh); i++ {
			runtime.GC()
			d, err := w.setup(sh, seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var walls, cals, payload, flows, peaks []float64
	for _, o := range info.reps {
		s := o.wall.Seconds() * calRef.Seconds() / o.cal.Seconds()
		walls = append(walls, s)
		cals = append(cals, o.cal.Seconds())
		payload = append(payload, o.payload/s)
		flows = append(flows, float64(o.completed)/s)
		peaks = append(peaks, o.peakHeap)
	}
	o := info.reps[0]
	return map[string]float64{
		"wall_s":          median(walls),
		"sim_payload_Bps": median(payload),
		"flows_per_s":     median(flows),
		"setup_s":         median(setups) * calRef.Seconds() / median(cals),
		"peak_heap_bytes": slices.Max(peaks),
		"completed_share": float64(o.completed) / float64(o.attempted),
	}, nil
}

func passes(w workload, sh shape) int {
	if w.fleet() {
		return sh.SetupPasses
	}
	return sh.BulkSetupPasses
}

// perLayer makes untraced reps for half the budget (for trace_overhead and
// the identity check), then one traced run under every observer.
func perLayer(name string, w workload, sh shape, seed uint64, budget time.Duration, workdir string,
	info *runInfo) (map[string]float64, error) {
	if err := timedReps(w, sh, seed, budget/2, 2, info, nil); err != nil {
		return nil, err
	}
	var walls []float64
	for _, o := range info.reps {
		walls = append(walls, o.wall.Seconds())
	}

	obs := &traceObs{}
	nWorkers := 1
	if w.fleet() {
		nWorkers = workers()
		dir := filepath.Join(workdir, fmt.Sprintf("trace-%s-%d", name, os.Getpid()))
		defer os.RemoveAll(dir)
		obs.dir, obs.telem = dir, mptcpgo.NewTelemetry("perfbench-"+name)
		defer obs.telem.Close()
	} else {
		obs.spans = &bulkSpans{}
	}
	runtime.GC()
	before := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	o, err := rep(w, sh, seed, obs)
	pprof.StopCPUProfile()
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	if h := o.hash(); h != info.hash {
		return nil, fmt.Errorf("traced result_sha256 %s differs from untraced %s", h, info.hash)
	}
	if w.fleet() {
		if err := fleetTraceCounts(obs, w.traceFile, o); err != nil {
			return nil, err
		}
	}
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	shares, samples := p.layerShares()

	m := make(map[string]float64, 64)
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	for k, v := range o.counts {
		m[k] = v
	}
	wall := o.wall.Seconds()
	m["profile.samples"] = float64(samples)
	m["sim.events"] = float64(o.events)
	m["sim.ns_per_event"] = ratio(o.counts["sim.step_s"]*1e9, float64(o.events))
	m["netem.segments_per_s"] = m["netem.segments"] / wall
	m["tcp.retransmit_ratio"] = ratio(m["tcp.retransmits"], m["netem.segments"])
	m["pool.miss_ratio"] = ratio(float64(after.pool.Misses-before.pool.Misses), float64(after.pool.Gets-before.pool.Gets))
	m["fleet.parallel_efficiency"] = (after.procCPU - before.procCPU).Seconds() / (float64(nWorkers) * wall)
	m["experiments.encode_s"] = o.encode.Seconds()
	m["runtime.alloc_bytes"] = float64(after.allocBytes - before.allocBytes)
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["trace_overhead"] = wall/median(walls) - 1
	info.attempted += o.attempted
	info.failed += o.failed
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult keeps exactly the metrics in defs, in their units; a metric
// the workload does not define reads 0.
func buildResult(defs []metricDef, m map[string]float64, info runInfo) (result, error) {
	r := result{Attempted: info.attempted, Failed: info.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	r.Correct = true
	return r, nil
}

// provenance describes the machine, since wall time is never compared
// across machines.
func provenance() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":        cpu,
	}
}

func run(args []string) (result, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: bulk, web, chaos or corelink")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "wall-clock seconds of timed runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for flight-recorder files")
	if err := fs.Parse(args); err != nil {
		return result{}, err
	}
	w, ok := workloads[*name]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have bulk, web, chaos, corelink)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return result{}, errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	budget := time.Duration(*seconds) * time.Second
	var info runInfo
	var m map[string]float64
	var err error
	defs := endToEndMetrics
	if *trace == 0 {
		m, err = endToEnd(w, fullShape, *seed, budget, &info)
	} else {
		defs = perLayerMetrics()
		m, err = perLayer(*name, w, fullShape, *seed, budget, *workdir, &info)
	}
	if err != nil {
		return result{Attempted: info.attempted, Failed: info.failed, Metrics: map[string]metricValue{}}, err
	}
	var walls, cals, peaks []float64
	for _, o := range info.reps {
		walls = append(walls, o.wall.Seconds())
		cals = append(cals, o.cal.Seconds())
		peaks = append(peaks, o.peakHeap)
	}
	line, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace, "result_sha256": info.hash,
		"reps": len(info.reps), "rep_wall_s": walls, "rep_calibration_s": cals,
		"rep_peak_heap_bytes": peaks, "machine": provenance(),
	})
	fmt.Printf("perfbench: %s\n", line)
	return buildResult(defs, m, info)
}

func main() {
	r, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if r.Metrics == nil {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(r)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil || !r.Correct {
		os.Exit(1)
	}
}
