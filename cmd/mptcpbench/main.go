// Command mptcpbench regenerates the paper's evaluation tables and figures,
// and runs the sharded fleet scenarios that go beyond the paper's scale.
//
// Usage:
//
//	mptcpbench -list
//	mptcpbench -run fig4
//	mptcpbench -run all -quick
//	mptcpbench -run fig3 -quick -format json -out BENCH_fig3.json
//	mptcpbench -scenario list
//	mptcpbench -scenario fleet-http -clients 1000 -workers 8
//	mptcpbench -scenario fleet-openloop -rate 400 -duration 5s -sizedist webmix
//	mptcpbench -scenario fleet-corelink -shared-link core:100mbps:100ms -rate 800
//	mptcpbench -scenario fleet-cdn -clients 256 -shared-link egress:200mbps
//	mptcpbench -scenario incast -quick -format json
//	mptcpbench -scenario fleet-chaos -faults flap500 -adversary rst
//
// Each experiment produces the same rows/series the corresponding figure in
// the paper reports, as aligned text (default), JSON or CSV; EXPERIMENTS.md
// records a captured run next to the paper's numbers, and CI archives the
// quick-run JSON as BENCH_*.json trajectory points.
//
// The -scenario families run on the internal/fleet sharded engine: the
// workload is partitioned into shards (each shard its own simulator plus
// server replica), shards execute in parallel across -workers goroutines and
// the merged output is byte-identical at any worker count for a fixed -seed
// and -shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mptcpgo/internal/capacity"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/faults"
	"mptcpgo/internal/fleet"
	"mptcpgo/internal/middlebox"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/telemetry"
	"mptcpgo/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available experiments and exit")
	run := flag.String("run", "", "experiment id to run (or 'all')")
	scenario := flag.String("scenario", "", "fleet scenario to run ('list' enumerates them)")
	quick := flag.Bool("quick", false, "run a reduced sweep that finishes in seconds")
	seed := flag.Uint64("seed", 42, "base RNG seed (runs are deterministic per seed; 0 is a legal seed)")
	format := flag.String("format", "text", "output format: text | json | csv")
	out := flag.String("out", "", "write output to this file instead of stdout")
	paperEra := flag.Bool("paper-era-cpu", false, "use the 2012-class host CPU cost model instead of calibrating on this machine")
	clients := flag.Int("clients", 0, "fleet scenario size: clients, senders or pairs (0 = scenario default)")
	shards := flag.Int("shards", 0, "fleet shard count (0 = one shard per 64 members)")
	workers := flag.Int("workers", 0, "parallel shard workers (0 = GOMAXPROCS; never changes the output)")
	pcapDir := flag.String("pcap-dir", "", "capture wire traffic into this directory: one classic pcap per fleet shard (-scenario) or per middlebox-matrix case (-run mbox); capture never changes results")
	traceDir := flag.String("trace-dir", "", "flight recorder: write <scenario>-trace.json and <scenario>-events.jsonl into this directory (off by default; capture never changes results)")
	probeInterval := flag.Duration("probe-interval", 0, "flight recorder: per-subflow time-series sampling cadence in simulated time (0 = events only; needs -trace-dir)")
	rate := flag.Float64("rate", 0, "fleet-openloop: fleet-wide mean arrival rate in flows/s (0 = scenario default)")
	duration := flag.Duration("duration", 0, "fleet-openloop: arrival window of simulated time (0 = scenario default)")
	sizeDist := flag.String("sizedist", "webmix", "fleet-openloop: flow-size distribution: fixed:<bytes> | lognormal:<mu>,<sigma> | pareto:<alpha>,<lo>,<hi> | webmix")
	arrival := flag.String("arrival", "poisson", "fleet-openloop: arrival process: poisson | fixed | onoff[:on_ms,off_ms]")
	faultSpec := flag.String("faults", "", "fleet-chaos: fault schedule — a preset name ("+strings.Join(faults.PresetNames(), ", ")+") or grammar like 'flap:path=1,period=1s,down=250ms' (see internal/faults)")
	adversary := flag.String("adversary", "", "fleet-chaos: adversarial middlebox preset: "+strings.Join(middlebox.AdversaryPresetNames(), " | "))
	sharedLink := flag.String("shared-link", "", "coupled scenarios: the shared bottleneck as [name:]rate[:epoch], e.g. 100mbps, core:1gbps:50ms (fleet-corelink, fleet-cdn, fleet-http)")
	progress := flag.Bool("progress", false, "fleet scenarios: print a live status line to stderr every second (telemetry never changes results)")
	progressInterval := flag.Duration("progress-interval", time.Second, "cadence of -progress status lines")
	metricsAddr := flag.String("metrics-addr", "", "fleet scenarios: serve Prometheus /metrics and expvar /debug/vars on this address during the run, e.g. 127.0.0.1:9090")
	metricsLinger := flag.Duration("metrics-linger", 0, "keep the -metrics-addr endpoint up this long after the run finishes, for scrapers that poll")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	defer stopProfiles()

	switch *format {
	case "text", "json", "csv":
	default:
		fail(fmt.Errorf("unknown output format %q (want text, json or csv)", *format))
	}

	if *scenario == "list" {
		listScenarios()
		return
	}
	if *scenario != "" {
		// -scenario selects a fleet run; combining it with flags it cannot
		// honour would silently produce output for different options than
		// requested.
		if *run != "" {
			fail(fmt.Errorf("-scenario and -run are mutually exclusive"))
		}
		if *paperEra {
			fail(fmt.Errorf("-paper-era-cpu does not apply to fleet scenarios"))
		}
		// The telemetry plane rides beside the deterministic core: it feeds
		// -progress, -metrics-addr and the runinfo sidecar, and attaching it
		// never changes the merged result (TestTelemetryChangesNothing). It is
		// built whenever anything can observe it.
		var plane *telemetry.Plane
		if *progress || *metricsAddr != "" || *out != "" || *traceDir != "" {
			plane = telemetry.New(*scenario)
		}
		info := telemetry.CollectRunInfo(*scenario, *seed, *quick)
		flag.Visit(func(f *flag.Flag) { info.SetFlag(f.Name, f.Value.String()) })
		o := scenarioOptions{
			env: fleet.Envelope{
				Seed: *seed, Shards: *shards, Workers: *workers, Quick: *quick, PcapDir: *pcapDir,
				Trace:     experiments.TraceSpec{Dir: *traceDir, ProbeInterval: *probeInterval},
				Telemetry: plane,
			},
			members: *clients,
			rate:    *rate, window: *duration, sizeDist: *sizeDist, arrival: *arrival,
			faults: *faultSpec, adversary: *adversary,
		}
		if *traceDir != "" {
			o.env.Trace.RunInfo = info
		}
		if *sharedLink != "" {
			l, err := capacity.ParseSharedLink(*sharedLink)
			if err != nil {
				fail(err)
			}
			o.shared = &l
		}
		var srv *telemetry.Server
		if *metricsAddr != "" {
			s, err := telemetry.Serve(*metricsAddr, plane)
			if err != nil {
				fail(err)
			}
			srv = s
			fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (Prometheus text) and /debug/vars (expvar)\n", srv.Addr())
		}
		prog := (*telemetry.Progress)(nil)
		if *progress {
			prog = telemetry.StartProgress(os.Stderr, plane, *progressInterval)
		}
		res, elapsed, err := runScenario(*scenario, o)
		prog.Stop()
		if err != nil {
			fail(err)
		}
		// The merged result is byte-comparable across runs and worker counts,
		// so wall-clock goes to stderr rather than into the encoded output.
		fmt.Fprintf(os.Stderr, "%s: %v wall-clock\n", res.ID, elapsed.Round(time.Millisecond))
		encodeSpan := plane.StartSpan("encode")
		writeResults(*out, *format, []*experiments.Result{res})
		encodeSpan.End()
		info.Finish(plane, elapsed)
		if *out != "" {
			// Provenance sidecar next to the encoded output: config plus the
			// machine-dependent wall-clock/phase/latency summary. Named
			// <out-minus-ext>-runinfo.json so BENCH freshness gates (which
			// compare the deterministic output file) never see it.
			side := strings.TrimSuffix(*out, filepath.Ext(*out)) + "-runinfo.json"
			if err := info.WriteFile(side); err != nil {
				fail(err)
			}
		}
		if srv != nil {
			if *metricsLinger > 0 {
				fmt.Fprintf(os.Stderr, "metrics: lingering %v for scrapers\n", *metricsLinger)
				time.Sleep(*metricsLinger)
			}
			srv.Close()
		}
		return
	}

	if *progress || *metricsAddr != "" {
		fail(fmt.Errorf("-progress and -metrics-addr instrument fleet scenarios; use them with -scenario"))
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			e, _ := experiments.Get(id)
			fmt.Printf("  %-10s %s\n", id, e.Title)
		}
		listScenarios()
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> (or -run all) to execute one")
		}
		return
	}

	opts := []experiments.Option{experiments.WithSeed(*seed)}
	if *quick {
		opts = append(opts, experiments.WithQuick())
	}
	if *paperEra {
		opts = append(opts, experiments.WithPaperEraCPU())
	}
	if *pcapDir != "" {
		opts = append(opts, experiments.WithPcapDir(*pcapDir))
	}
	if *traceDir != "" {
		opts = append(opts, experiments.WithTrace(*traceDir, *probeInterval))
	}

	ids := []string{*run}
	if strings.EqualFold(*run, "all") {
		ids = experiments.IDs()
	}
	info := telemetry.CollectRunInfo(*run, *seed, *quick)
	flag.Visit(func(f *flag.Flag) { info.SetFlag(f.Name, f.Value.String()) })
	start := time.Now()
	results := make([]*experiments.Result, 0, len(ids))
	for _, id := range ids {
		res, err := experiments.Run(id, opts...)
		if err != nil {
			fail(err)
		}
		results = append(results, res)
	}
	elapsed := time.Since(start)
	writeResults(*out, *format, results)
	if *out != "" {
		info.Finish(nil, elapsed)
		side := strings.TrimSuffix(*out, filepath.Ext(*out)) + "-runinfo.json"
		if err := info.WriteFile(side); err != nil {
			fail(err)
		}
	}
}

// scenarioOptions carries the CLI sizing for one fleet scenario run.
type scenarioOptions struct {
	// env is the run knobs and observers every scenario shares.
	env     fleet.Envelope
	members int

	// open-loop scenarios (fleet-openloop, fleet-corelink) only.
	rate     float64
	window   time.Duration
	sizeDist string
	arrival  string

	// fleet-chaos only.
	faults    string
	adversary string

	// coupled scenarios only: the -shared-link bottleneck, nil when unset.
	shared *capacity.SharedLink
}

// scenarioDef registers one fleet scenario: its name, a one-line description
// for '-scenario list', and the runner that applies the CLI sizing.
type scenarioDef struct {
	name     string
	describe string
	run      func(o scenarioOptions) (*experiments.Result, error)
}

// scenarios is the ordered registry behind -scenario; runScenario and
// '-scenario list' both walk it, so a scenario cannot be runnable but
// unlisted or vice versa.
var scenarios = []scenarioDef{
	{"fleet-http", "1000+ closed-loop clients against sharded server replicas (-shared-link couples them)", runHTTPScenario},
	{"fleet-openloop", "open-loop arrivals (-rate/-arrival) with drawn flow sizes (-sizedist)", runOpenLoopScenario},
	{"fleet-corelink", "open-loop fleet whose downloads jointly transit one shared core link (-shared-link)", runCorelinkScenario},
	{"fleet-cdn", "CDN flash crowd: every client fetches one object through a shared origin egress", runCDNScenario},
	{"incast", "synchronized many-to-one fan-in over the N-host graph", runIncastScenario},
	{"mixed", "MPTCP foreground vs plain-TCP background traffic", runMixedScenario},
	{"fleet-chaos", "integrity-checked uploads under fault schedules (-faults) and adversarial middleboxes (-adversary)", runChaosScenario},
	{"trace-overhead", "flight-recorder cost probe: one open-loop run traced and one untraced, results proven identical", runTraceOverheadScenario},
	{"sched-equivalence", "scheduler pin: wheel vs heap firing-order checksums over deterministic churn workloads", runSchedScenario},
}

// listScenarios prints the scenario registry, one line per scenario.
func listScenarios() {
	fmt.Println("available fleet scenarios (-scenario):")
	for _, s := range scenarios {
		fmt.Printf("  %-14s %s\n", s.name, s.describe)
	}
}

// runScenario dispatches one fleet scenario with CLI sizing applied.
func runScenario(name string, o scenarioOptions) (*experiments.Result, time.Duration, error) {
	for _, s := range scenarios {
		if s.name != name {
			continue
		}
		start := time.Now()
		res, err := s.run(o)
		return res, time.Since(start), err
	}
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return nil, 0, fmt.Errorf("unknown scenario %q (want %s, or 'list')", name, strings.Join(names, ", "))
}

func runHTTPScenario(o scenarioOptions) (*experiments.Result, error) {
	n, requests, size := 1000, 2, 32<<10
	if o.env.Quick {
		n, requests, size = 64, 1, 16<<10
	}
	if o.members > 0 {
		n = o.members
	}
	spec := fleet.DefaultHTTPSpec(o.env.Seed, n, requests, size)
	spec.Envelope = o.env
	spec.Shared = o.shared
	return fleet.RunHTTP(spec)
}

// openLoopSpecFrom resolves the open-loop flags into an OpenLoopSpec; shared
// between fleet-openloop and fleet-corelink.
func openLoopSpecFrom(o scenarioOptions) (fleet.OpenLoopSpec, error) {
	hosts, rate, window := 256, 400.0, 5*time.Second
	if o.env.Quick {
		hosts, rate, window = 32, 60.0, 2*time.Second
	}
	if o.members > 0 {
		hosts = o.members
	}
	if o.rate > 0 {
		rate = o.rate
	}
	if o.window > 0 {
		window = o.window
	}
	arrival, err := workload.ParseArrival(o.arrival, rate)
	if err != nil {
		return fleet.OpenLoopSpec{}, err
	}
	sizes, err := workload.ParseSizeDist(o.sizeDist)
	if err != nil {
		return fleet.OpenLoopSpec{}, err
	}
	return fleet.OpenLoopSpec{Envelope: o.env, Hosts: hosts, Arrival: arrival, Sizes: sizes, Window: window}, nil
}

func runOpenLoopScenario(o scenarioOptions) (*experiments.Result, error) {
	if o.shared != nil {
		return nil, fmt.Errorf("fleet-openloop shards are uncoupled; use -scenario fleet-corelink for a shared bottleneck")
	}
	spec, err := openLoopSpecFrom(o)
	if err != nil {
		return nil, err
	}
	return fleet.RunOpenLoop(spec)
}

func runCorelinkScenario(o scenarioOptions) (*experiments.Result, error) {
	spec, err := openLoopSpecFrom(o)
	if err != nil {
		return nil, err
	}
	core := capacity.SharedLink{Name: capacity.DefaultName, RateBps: netem.Mbps(100)}
	if o.env.Quick {
		core.RateBps = netem.Mbps(10)
	}
	if o.shared != nil {
		core = *o.shared
	}
	return fleet.RunCorelink(fleet.CorelinkSpec{OpenLoopSpec: spec, Shared: core})
}

func runCDNScenario(o scenarioOptions) (*experiments.Result, error) {
	n, size := 256, 1<<20
	if o.env.Quick {
		n, size = 32, 256<<10
	}
	if o.members > 0 {
		n = o.members
	}
	spec := fleet.CDNSpec{Envelope: o.env, Clients: n, ObjectSize: size}
	if o.env.Quick {
		spec.Shared.RateBps = netem.Mbps(50)
	}
	if o.shared != nil {
		spec.Shared = *o.shared
	}
	return fleet.RunCDN(spec)
}

func runIncastScenario(o scenarioOptions) (*experiments.Result, error) {
	n, block := 256, 256<<10
	if o.env.Quick {
		n, block = 32, 128<<10
	}
	if o.members > 0 {
		n = o.members
	}
	return fleet.RunIncast(fleet.IncastSpec{Envelope: o.env, Senders: n, BlockSize: block})
}

func runMixedScenario(o scenarioOptions) (*experiments.Result, error) {
	n, dur := 32, 5*time.Second
	if o.env.Quick {
		n, dur = 8, 2*time.Second
	}
	if o.members > 0 {
		n = o.members
	}
	return fleet.RunMixed(fleet.MixedSpec{Envelope: o.env, Pairs: n, Duration: dur})
}

func runChaosScenario(o scenarioOptions) (*experiments.Result, error) {
	n := 32
	if o.env.Quick {
		n = 8
	}
	if o.members > 0 {
		n = o.members
	}
	spec, err := faults.Parse(o.faults)
	if err != nil {
		return nil, err
	}
	return fleet.RunChaos(fleet.ChaosSpec{Envelope: o.env, Members: n, Faults: spec, Adversary: o.adversary})
}

// writeResults encodes results to the -out file or stdout.
func writeResults(out, format string, results []*experiments.Result) {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := experiments.WriteResults(w, format, results); err != nil {
		fail(err)
	}
}

// startProfiles arms the -cpuprofile/-memprofile collectors and returns the
// function that finalizes both; main defers it so any run (experiment or
// fleet scenario) can be profiled without code edits. Error exits skip the
// finalizer, which only loses the profile of a failed run.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
