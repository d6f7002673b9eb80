package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"mptcpgo"
	"mptcpgo/internal/experiments"
)

// smokeShape is every workload at a size that runs in well under a second.
var smokeShape = shape{
	BulkClients: 2,
	BulkSim:     100 * time.Millisecond,

	WebHosts:  32,
	WebShards: 2,
	WebRate:   200,
	WebSizes:  fullShape.WebSizes,
	WebWindow: time.Second,
	CoreMbps:  2,

	ChaosMembers:   8,
	ChaosBytes:     64 << 10,
	ChaosFaults:    fullShape.ChaosFaults,
	ChaosAdversary: fullShape.ChaosAdversary,

	SetupPasses:     1,
	BulkSetupPasses: 3,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmokeEndToEnd runs each workload small and untraced: its checks pass,
// and every end-to-end metric comes out positive with its unit.
func TestSmokeEndToEnd(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var info runInfo
			m, err := endToEnd(workloads[name], smokeShape, 7, 0, &info)
			if err != nil {
				t.Fatal(err)
			}
			r, err := buildResult(endToEndMetrics, m, info)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Metrics) != len(endToEndMetrics) || info.attempted < 1 {
				t.Fatalf("metrics %v, attempted %d", r.Metrics, info.attempted)
			}
			for _, d := range endToEndMetrics {
				if v := r.Metrics[d.name]; v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}
			if len(info.hash) != 64 {
				t.Errorf("result_sha256 %q", info.hash)
			}
		})
	}
}

// TestSmokePerLayer runs each workload small and traced: the traced Result
// is byte-identical to the untraced one (perLayer fails otherwise), every
// per-layer metric is emitted, and the CPU shares sum to 1.
func TestSmokePerLayer(t *testing.T) {
	defs := perLayerMetrics()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var info runInfo
			m, err := perLayer(name, workloads[name], smokeShape, 7, 0, t.TempDir(), &info)
			if err != nil {
				t.Fatal(err)
			}
			r, err := buildResult(defs, m, info)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for _, d := range defs {
				v, ok := r.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s missing or in the wrong unit: %+v", d.name, v)
				}
				if strings.HasSuffix(d.name, ".cpu_share") {
					sum += v.Value
				}
			}
			if m["profile.samples"] > 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", sum)
			}
			if m["sim.events"] <= 0 || m["netem.segments"] <= 0 {
				t.Errorf("events %v, segments %v", m["sim.events"], m["netem.segments"])
			}
		})
	}
}

func TestFlippedPayloadByteTripsCheck(t *testing.T) {
	pattern := makePattern(3)
	a := &bulkConn{pattern: pattern, base: bulkStride, corruptAt: -1, sent: 3 * patternLen}
	stream := make([]byte, 2*patternLen)
	for i := range stream {
		stream[i] = pattern[(bulkStride+i)%patternLen]
	}
	a.check(stream[:1000])
	if a.corruptAt >= 0 {
		t.Fatalf("clean bytes flagged at %d", a.corruptAt)
	}
	stream[patternLen+5] ^= 0x01
	a.check(stream[1000:])
	if a.corruptAt != 1000 {
		t.Fatalf("corruptAt = %d, want 1000 (start of the chunk holding the flipped byte)", a.corruptAt)
	}
	if err := checkBulkConn(0, a); err == nil || !strings.Contains(err.Error(), "payload mismatch") {
		t.Fatalf("checkBulkConn = %v, want a payload mismatch", err)
	}
}

func openLoopTable(rows ...[]string) *mptcpgo.Result {
	t := experiments.NewTable("open loop", "shard", "hosts", "offered", "done", "dropped", "shed", "failed", "open",
		"offered Mbps", "goodput Mbps", "p50 ms", "p99 ms", "events")
	for _, r := range rows {
		t.AddRow(r...)
	}
	res := &mptcpgo.Result{ID: "fleet-openloop"}
	res.AddTable(t)
	return res
}

func TestOpenLoopConservation(t *testing.T) {
	ok := openLoopTable(
		[]string{"0", "2", "10", "7", "2", "1", "0", "0", "1.00", "0.90", "5", "9", "100"},
		[]string{"1", "2", "5", "5", "0", "0", "0", "0", "0.50", "0.50", "5", "9", "50"},
		[]string{"all", "4", "15", "12", "2", "1", "0", "0", "1.50", "1.40", "5", "9", "150"},
	)
	var o outcome
	if err := openLoopOutcome(ok, time.Second, &o); err != nil {
		t.Fatal(err)
	}
	if o.attempted != 15 || o.completed != 12 || o.failed != 0 || o.events != 150 {
		t.Fatalf("outcome %+v", o)
	}
	lost := openLoopTable(
		[]string{"0", "2", "10", "6", "2", "1", "0", "0", "1.00", "0.90", "5", "9", "100"},
		[]string{"all", "2", "10", "6", "2", "1", "0", "0", "1.00", "0.90", "5", "9", "100"},
	)
	if err := openLoopOutcome(lost, time.Second, &o); err == nil {
		t.Error("a flow missing from done+dropped+shed+failed+open passed the check")
	}
	split := openLoopTable(
		[]string{"0", "2", "10", "10", "0", "0", "0", "0", "1.00", "0.90", "5", "9", "100"},
		[]string{"all", "2", "11", "11", "0", "0", "0", "0", "1.00", "0.90", "5", "9", "100"},
	)
	if err := openLoopOutcome(split, time.Second, &o); err == nil {
		t.Error("shards that do not sum to the all row passed the check")
	}
}

func TestChaosChecks(t *testing.T) {
	table := func(row []string) *mptcpgo.Result {
		tb := experiments.NewTable("chaos", "shard", "members", "ok", "fallback", "stalled", "stallEp", "failed",
			"intact", "reinject", "connRtx", "flaps", "ifdown", "ifup", "reasons", "events")
		tb.AddRow(row...)
		res := &mptcpgo.Result{ID: "fleet-chaos"}
		res.AddTable(tb)
		return res
	}
	var o outcome
	good := table([]string{"all", "4", "3", "1", "0", "0", "0", "4", "9", "0", "0", "0", "0", "-", "99"})
	if err := chaosOutcome(good, 1000, &o); err != nil {
		t.Fatal(err)
	}
	if o.payload != 4000 || o.completed != 4 || o.counts["core.reinjections"] != 9 {
		t.Fatalf("outcome %+v", o)
	}
	for name, row := range map[string][]string{
		"not intact":   {"all", "4", "3", "1", "0", "0", "0", "3", "9", "0", "0", "0", "0", "-", "99"},
		"unclassified": {"all", "4", "2", "1", "0", "0", "0", "4", "9", "0", "0", "0", "0", "-", "99"},
	} {
		if err := chaosOutcome(table(row), 1000, &o); err == nil {
			t.Errorf("%s member passed the check", name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's workload and metric lists
// in step with what the program emits.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program emits %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), program emits %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
}
