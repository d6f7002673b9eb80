package mptcpgo

import (
	"bytes"
	"testing"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/core"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/pool"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/sim"
	"mptcpgo/internal/telemetry"
)

// Allocation-regression guards: the pooled hot paths introduced for the
// Figure 3 / §4.3 performance work must stay allocation-free. These tests
// fail loudly if a change reintroduces per-segment allocation.
//
// testing.AllocsPerRun averages over many runs, so a single GC-induced pool
// miss does not flake the guard; a systematic regression (one alloc per
// cycle) pushes the average to ≥1 and fails.

// TestPooledPayloadCycleNoAllocs guards pool.Bytes/pool.Copy/pool.Recycle.
func TestPooledPayloadCycleNoAllocs(t *testing.T) {
	src := make([]byte, 1460)
	for i := 0; i < 8; i++ {
		pool.Recycle(pool.Bytes(1460)) // warm the class
	}
	avg := testing.AllocsPerRun(500, func() {
		b := pool.Copy(src)
		pool.Recycle(b)
	})
	if avg >= 1 {
		t.Fatalf("pooled payload copy/recycle cycle allocates %.2f allocs/op; want 0", avg)
	}
}

// TestPooledSegmentCycleNoAllocs guards the segment build/release cycle —
// the per-hop cost of every emulated packet.
func TestPooledSegmentCycleNoAllocs(t *testing.T) {
	payload := make([]byte, 1460)
	for i := 0; i < 8; i++ {
		seg := packet.NewSegment()
		seg.AttachPayload(pool.Copy(payload))
		seg.Release() // warm segment and payload pools
	}
	avg := testing.AllocsPerRun(500, func() {
		seg := packet.NewSegment()
		seg.Src = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 1), Port: 40000}
		seg.Dst = packet.Endpoint{Addr: packet.MakeAddr(10, 0, 0, 2), Port: 80}
		seg.Flags = packet.FlagACK | packet.FlagPSH
		seg.AttachPayload(pool.Copy(payload))
		seg.Release()
	})
	if avg >= 1 {
		t.Fatalf("pooled segment cycle allocates %.2f allocs/op; want 0", avg)
	}
}

// TestOfoQueueSteadyStateNoAllocs guards the free-listed out-of-order
// queues: once the node/batch free lists and the PopContiguous scratch slice
// are warm, a reorder-then-drain cycle (two subflows, one gap, one fill) must
// not allocate in any of the four §4.3 algorithms — neither for payload
// buffers (pooled since PR 1) nor for the listNode/treeNode/batchNode structs
// and the result slice.
func TestOfoQueueSteadyStateNoAllocs(t *testing.T) {
	payload := make([]byte, 1460)
	for _, alg := range buffer.Algorithms() {
		q := buffer.NewOfoQueue(alg)
		var next uint64
		cycle := func() {
			// Subflow 1's segment arrives early (creating the gap), subflow
			// 0's fills it; the drain returns both.
			q.Insert(buffer.Item{Seq: next + 1460, Data: payload, Subflow: 1})
			q.Insert(buffer.Item{Seq: next, Data: payload, Subflow: 0})
			for _, it := range q.PopContiguous(next) {
				next = it.End()
				pool.Recycle(it.Data)
			}
			if q.Len() != 0 {
				t.Fatalf("%s: queue not drained (%d items left)", q.Name(), q.Len())
			}
		}
		for i := 0; i < 16; i++ {
			cycle() // warm the free lists and the scratch slice
		}
		avg := testing.AllocsPerRun(300, cycle)
		if avg >= 1 {
			t.Fatalf("%s OFO steady-state cycle allocates %.2f allocs/op; want 0", q.Name(), avg)
		}
	}
}

// TestChecksumNoAllocs guards the word-at-a-time checksum paths (Figure 3's
// hot loop): neither the plain Internet checksum nor the DSS checksum with
// its stack pseudo-header may allocate.
func TestChecksumNoAllocs(t *testing.T) {
	buf := make([]byte, 1460)
	var sink uint16
	avg := testing.AllocsPerRun(500, func() {
		sink ^= packet.Checksum(buf)
		sink ^= packet.DSSChecksum(1234, 5678, 1460, buf)
	})
	_ = sink
	if avg != 0 {
		t.Fatalf("checksum paths allocate %.2f allocs/op; want 0", avg)
	}
}

// TestChecksumMatchesReference cross-checks the optimized word-at-a-time
// checksum against the definitional byte-at-a-time sum on assorted lengths
// and alignment-hostile sizes.
func TestChecksumMatchesReference(t *testing.T) {
	reference := func(sum uint32, data []byte) uint32 {
		i, n := 0, len(data)
		for ; i+1 < n; i += 2 {
			sum += uint32(data[i])<<8 | uint32(data[i+1])
		}
		if i < n {
			sum += uint32(data[i]) << 8
		}
		return sum
	}
	fold := packet.FoldChecksum
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 536, 1459, 1460, 8960} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*131 + n)
		}
		want := fold(reference(0, data))
		got := fold(packet.PartialChecksum(0, data))
		if got != want {
			t.Fatalf("len=%d: checksum %#04x, reference %#04x", n, got, want)
		}
		// Composed partial sums (pseudo-header + payload) must agree too.
		want = fold(reference(reference(0, data[:n/2*2]), data[n/2*2:]))
		got = fold(packet.PartialChecksum(packet.PartialChecksum(0, data[:n/2*2]), data[n/2*2:]))
		if got != want {
			t.Fatalf("len=%d: composed checksum %#04x, reference %#04x", n, got, want)
		}
	}
}

// sendPathCycleAllocs measures the steady-state allocation cost of one
// write→deliver→read cycle over a symmetric 100 Mbps path. When traced is
// true a flight recorder is attached to the client stack first (events only —
// no sampler — so the cycle exercises the Emit/Count hot path, not the
// time-series machinery). When telem is true each cycle also performs one
// telemetry publish — the shard-cell atomic stores plus one latency histogram
// observation — mirroring what an attached plane costs the fleet step loop.
func sendPathCycleAllocs(t *testing.T, traced, telem bool) float64 {
	t.Helper()
	s := sim.New(7)
	net := netem.Build(s, netem.Symmetric("p", netem.Mbps(100), time.Millisecond, 0, 0))
	cliMgr := core.NewManager(net.Client)
	srvMgr := core.NewManager(net.Server)
	if traced {
		cliMgr.SetProbe(probe.NewRecorder(s, 0, 1, probe.Config{}), 0)
	}

	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 256 << 10
	cfg.RecvBufBytes = 256 << 10

	var serverConn *core.Connection
	if _, err := srvMgr.Listen(80, cfg, func(c *core.Connection) { serverConn = c }); err != nil {
		t.Fatal(err)
	}
	iface := net.Client.Interfaces()[0]
	conn, err := cliMgr.Dial(iface, packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && (serverConn == nil || !conn.Established()); i++ {
		if !s.Step() {
			break
		}
	}
	if serverConn == nil || !conn.Established() {
		t.Fatal("connection did not establish")
	}

	var cell *telemetry.ShardCell
	var hist *telemetry.Histogram
	if telem {
		plane := telemetry.New("alloc-guard")
		cell = plane.Track.Cell(0, 1)
		hist = telemetry.NewLatencyHistogram()
		hist.Observe(1) // touch min/max once so Observe runs its full path
	}

	payload := make([]byte, 1460)
	readBuf := make([]byte, 4096)
	cycle := func() {
		if conn.Write(payload) != len(payload) {
			t.Fatal("write rejected in steady state")
		}
		deadline := s.Now() + time.Second
		for serverConn.ReadableBytes() < len(payload) && s.Now() < deadline {
			if !s.Step() {
				break
			}
		}
		for serverConn.ReadableBytes() > 0 {
			if serverConn.ReadInto(readBuf) == 0 {
				break
			}
		}
		if cell != nil {
			cell.SimNowNs.Store(int64(s.Now()))
			cell.Events.Store(s.Processed)
			cell.Segments.Add(1)
			hist.Observe(float64(s.Now()) / float64(time.Millisecond))
		}
	}
	for i := 0; i < 64; i++ {
		cycle() // reach steady state: free lists, pools and queues warm
	}
	return testing.AllocsPerRun(400, cycle)
}

// TestSendPathSteadyStateAllocs guards the chunk + DSS recycling on the
// full MPTCP send path: once a connection reaches steady state, a
// write→deliver→read cycle must not allocate per segment. Every moving part
// is recycled — chunk structs and their DSS options (per-endpoint free
// lists), outgoing segments and payload buffers (pools), outgoing options
// (per-segment arenas), events (simulator free list) — so the average
// allocation count per cycle is pinned near zero. The small budget absorbs
// sync.Pool refills after GC cycles; before chunk/DSS recycling this cycle
// cost dozens of allocations.
//
// With no probe attached, every flight-recorder hook reduces to one
// nil-receiver (or nil-config) branch, so tracing-disabled stays under the
// same budget it had before the instrumentation existed.
func TestSendPathSteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, false, false)
	if avg >= 4 {
		t.Fatalf("steady-state send cycle allocates %.2f allocs/op; want < 4", avg)
	}
}

// TestSendPathTracedSteadyStateAllocs pins the flight recorder's enabled-path
// budget: with a recorder attached, every emission lands in a preallocated
// per-member ring and counter set, so the traced steady-state cycle must meet
// the same < 4 allocs/op budget as the untraced one.
func TestSendPathTracedSteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, true, false)
	if avg >= 4 {
		t.Fatalf("traced steady-state send cycle allocates %.2f allocs/op; want < 4 (recorder storage is preallocated)", avg)
	}
}

// TestSendPathTelemetrySteadyStateAllocs pins the telemetry plane's hot-path
// budget: a shard-cell publish is a handful of atomic stores and a histogram
// observation is a binary search plus an atomic-free bucket increment, so the
// instrumented cycle must meet the same < 4 allocs/op budget as the bare one.
func TestSendPathTelemetrySteadyStateAllocs(t *testing.T) {
	avg := sendPathCycleAllocs(t, false, true)
	if avg >= 4 {
		t.Fatalf("telemetry steady-state send cycle allocates %.2f allocs/op; want < 4 (cells and buckets are preallocated)", avg)
	}
}

// TestBulkTransferAllocBudget pins the end-to-end allocation footprint of
// the short WiFi+3G bulk transfer that BenchmarkBulkTransferAllocs measures.
// The hot-path work (PR 1: pools and send-queue slicing; this PR: chunk/DSS
// recycling, per-segment option arenas, capacity-preserving queues) brought
// it from ~268k to ~59.8k to ~3.2k allocs/op; the budget holds the new
// steady state with headroom for GC-induced pool refills.
func TestBulkTransferAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("bulk transfer budget is not measured in -short mode")
	}
	cfg := core.DefaultConfig()
	cfg.SendBufBytes = 256 << 10
	cfg.RecvBufBytes = 256 << 10
	run := func() {
		if _, err := experiments.RunBulk(experiments.BulkOptions{
			Seed:     1,
			Specs:    netem.WiFi3GSpec(),
			Client:   cfg,
			Server:   cfg,
			Duration: 3 * time.Second,
			Warmup:   1 * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(3, run)
	const budget = 8000
	if avg > budget {
		t.Fatalf("bulk transfer allocates %.0f allocs/run; budget %d (pre-recycling figure was ~59.8k)", avg, budget)
	}
}

// TestSendStoreFullWindowNoAllocs guards the block-pooled send store on its
// hardest cycle: a 512 KiB window kept full while one MSS is appended and
// one trimmed per op must allocate nothing — blocks cycle through the pool,
// and no Append ever moves live bytes.
func TestSendStoreFullWindowNoAllocs(t *testing.T) {
	const window, mss = 512 << 10, 1460
	q := buffer.NewByteQueue(0)
	q.Append(make([]byte, window))
	seg := make([]byte, mss)
	cycle := func() {
		q.Append(seg)
		q.TrimTo(q.HeadOffset() + mss)
	}
	for i := 0; i < 2*window/mss; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("full-window send-store cycle allocates %.2f allocs/op; want 0", avg)
	}
}

// fullWindowConn establishes a two-subflow connection with fixed 512 KiB
// buffers over a 1 Gbps + 100 Mbps pair, a server that reads all it gets,
// and a client send buffer filled to the brim.
func fullWindowConn(t *testing.T) (*core.Connection, *sim.Simulator) {
	t.Helper()
	s := sim.New(3)
	net := netem.Build(s,
		netem.Symmetric("gbe", netem.Gbps(1), time.Millisecond, 0, 0),
		netem.Symmetric("fe", netem.Mbps(100), time.Millisecond, 0, 0))
	cfg := core.DefaultConfig()
	cfg.AutoTuneBuffers = false // hold the send buffer at its 512 KiB maximum
	readBuf := make([]byte, 64<<10)
	if _, err := core.NewManager(net.Server).Listen(80, cfg, func(c *core.Connection) {
		c.OnReadable = func() {
			for c.ReadInto(readBuf) > 0 {
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := core.NewManager(net.Client).Dial(net.Client.Interfaces()[0], packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !conn.Established() || len(conn.Subflows()) != 2 {
		t.Fatalf("connection not up: established=%v subflows=%d", conn.Established(), len(conn.Subflows()))
	}
	fill := make([]byte, 64<<10)
	for conn.Write(fill) > 0 {
	}
	if conn.SenderMemory() != 512<<10 {
		t.Fatalf("send buffer holds %d bytes, want it full", conn.SenderMemory())
	}
	return conn, s
}

// TestFullWindowWriteCycleAllocs runs the closed-loop writer's cycle on a
// full 512 KiB connection buffer — wait for DATA_ACKs to free one MSS, write
// it — and pins it to the steady-state send-path budget. It also bounds the
// store's resident blocks: bytes leave the store once DATA_ACKed and no
// subflow references them, so it never holds much more than the window.
func TestFullWindowWriteCycleAllocs(t *testing.T) {
	conn, s := fullWindowConn(t)
	payload := make([]byte, 1460)
	maxBlocks := 0
	cycle := func() {
		for conn.Write(payload) == 0 {
			if !s.Step() {
				t.Fatal("simulation ran dry with a full send buffer")
			}
		}
		maxBlocks = max(maxBlocks, conn.SendStoreBlocks())
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg >= 4 {
		t.Fatalf("full-window write cycle allocates %.2f allocs/op; want < 4", avg)
	}
	if limit := 2 * (512 << 10) / 2048; maxBlocks > limit {
		t.Fatalf("send store held %d blocks for a 512 KiB window; want <= %d", maxBlocks, limit)
	}
}

// TestSendStoreReleasedAtTeardown checks that a connection torn down with
// unacknowledged data returns every send-store block: aborted outright, and
// closed but then losing every subflow to a reset.
func TestSendStoreReleasedAtTeardown(t *testing.T) {
	for _, abort := range []bool{true, false} {
		conn, s := fullWindowConn(t)
		if conn.SendStoreBlocks() < (512<<10)/2048 {
			t.Fatalf("a full 512 KiB store holds only %d blocks", conn.SendStoreBlocks())
		}
		before := pool.Stats()
		held := conn.SendStoreBlocks()
		if abort {
			conn.Abort()
		} else {
			conn.Close()
			for _, sf := range conn.Subflows() {
				sf.Endpoint().SendReset()
			}
		}
		if err := s.RunUntil(s.Now() + 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if !conn.Closed() || conn.SenderMemory() == 0 {
			t.Fatalf("abort=%v: want a closed connection with unacked data (closed=%v, unacked=%d)", abort, conn.Closed(), conn.SenderMemory())
		}
		if n := conn.SendStoreBlocks(); n != 0 {
			t.Fatalf("abort=%v: send store still holds %d blocks after teardown", abort, n)
		}
		after := pool.Stats()
		if returned := (after.Puts - before.Puts) + (after.Drops - before.Drops); returned < uint64(held) {
			t.Fatalf("abort=%v: %d blocks held, only %d buffers went back to the pool", abort, held, returned)
		}
	}
}

// retransmitTap is a middlebox on both paths of a two-path connection. Until
// dropUntil it blackholes the client's data segments on path A, so their
// mappings are reinjected on path B and DATA_ACKed there; afterwards A's own
// retransmissions of those already DATA_ACKed bytes get through. Every data
// segment it sees is checked against the first transmission of its mapping
// and against its DSS checksum.
type retransmitTap struct {
	t         *testing.T
	dropUntil time.Duration
	originals map[packet.DataSeq][]byte
	// dataAcked is the highest DATA_ACK the server sent; ackedRtx counts the
	// data segments on path A whose bytes were all DATA_ACKed already.
	dataAcked packet.DataSeq
	ackedRtx  int
}

// tapBox is retransmitTap's middlebox on one path.
type tapBox struct {
	tap   *retransmitTap
	pathA bool
}

func (*tapBox) Name() string { return "retransmit-tap" }

func (b *tapBox) Process(ctx netem.BoxContext, dir netem.Direction, seg *packet.Segment) []*packet.Segment {
	r := b.tap
	dss, _ := seg.MPTCPOption(packet.SubDSS).(*packet.DSSOption)
	switch {
	case dss == nil:
	case dir == netem.BtoA:
		if dss.HasDataACK && dss.DataACK > r.dataAcked {
			r.dataAcked = dss.DataACK
		}
	case dss.HasMapping && len(seg.Payload) > 0:
		r.check(dss, seg.Payload)
		if !b.pathA {
			break
		}
		if ctx.Now() < r.dropUntil {
			seg.Release()
			return nil
		}
		if dss.DataSeq+packet.DataSeq(dss.Length) <= r.dataAcked {
			r.ackedRtx++
		}
	}
	return []*packet.Segment{seg}
}

func (r *retransmitTap) check(dss *packet.DSSOption, payload []byte) {
	if !packet.VerifyDSSChecksum(dss, payload) {
		r.t.Errorf("mapping %d: DSS checksum does not verify", dss.DataSeq)
	}
	if orig, ok := r.originals[dss.DataSeq]; !ok {
		r.originals[dss.DataSeq] = append([]byte(nil), payload...)
	} else if !bytes.Equal(orig, payload) {
		r.t.Errorf("mapping %d: retransmitted bytes differ from the original", dss.DataSeq)
	}
}

// TestRetransmitAfterReinjectionDataAcked covers the one subtle case of the
// copy-once send store: a subflow may have to retransmit bytes that a
// reinjection already got DATA_ACKed on another subflow, and its DSS
// checksum covers exactly those bytes, so they must still be resident and
// unchanged.
func TestRetransmitAfterReinjectionDataAcked(t *testing.T) {
	s := sim.New(5)
	net := netem.Build(s,
		netem.Symmetric("a", netem.Mbps(100), 10*time.Millisecond, 0, 0),
		netem.Symmetric("b", netem.Mbps(100), 10*time.Millisecond, 0, 0))
	tap := &retransmitTap{t: t, dropUntil: 600 * time.Millisecond, originals: map[packet.DataSeq][]byte{}}
	net.Paths[0].AddBox(&tapBox{tap: tap, pathA: true})
	net.Paths[1].AddBox(&tapBox{tap: tap})

	cfg := core.DefaultConfig()
	const total = 4 << 20
	data := make([]byte, total)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	var got []byte
	var server *core.Connection
	if _, err := core.NewManager(net.Server).Listen(80, cfg, func(c *core.Connection) {
		server = c
		c.OnReadable = func() {
			for {
				d := c.Read(64 << 10)
				if len(d) == 0 {
					break
				}
				got = append(got, d...)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := core.NewManager(net.Client).Dial(net.Client.Interfaces()[0], packet.Endpoint{Addr: net.ServerAddr(0), Port: 80}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	pump := func() {
		for sent < total {
			n := conn.Write(data[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
		conn.Close()
	}
	conn.OnEstablished = pump
	conn.OnWritable = pump
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(got, data) {
		t.Fatalf("server received %d of %d bytes, intact prefix: %v", len(got), total, bytes.Equal(got, data[:len(got)]))
	}
	if conn.Stats().Reinjections == 0 {
		t.Fatal("the blackhole caused no reinjection")
	}
	if tap.ackedRtx == 0 {
		t.Fatal("no subflow retransmission of already DATA_ACKed bytes was observed")
	}
	if n := server.Stats().ChecksumFailures; n != 0 {
		t.Fatalf("server saw %d DSS checksum failures", n)
	}
}
