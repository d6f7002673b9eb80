package tcp

import (
	"bytes"
	"testing"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// testNet builds a single-path client/server topology.
func testNet(t *testing.T, cfg netem.LinkConfig) *netem.Network {
	t.Helper()
	s := sim.New(1)
	return netem.Build(s, netem.PathSpec{Name: "p0", Config: netem.PathConfig{AB: cfg, BA: cfg}})
}

// runTransfer sends total bytes from client to server over a fresh
// connection and returns the completion time and the received data length.
func runTransfer(t *testing.T, n *netem.Network, cfg Config, total int, deadline time.Duration) (time.Duration, int) {
	t.Helper()
	received := 0
	var done time.Duration

	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() {
			for {
				data := ep.Read(64 << 10)
				if len(data) == 0 {
					break
				}
				received += len(data)
			}
			if received >= total && done == 0 {
				done = n.Sim.Now()
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	sent := 0
	pump := func() {
		for sent < total {
			chunk := minInt(32<<10, total-sent)
			w := client.Write(bytes.Repeat([]byte{byte(sent)}, chunk))
			if w == 0 {
				break
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump

	if err := n.Sim.RunUntil(deadline); err != nil {
		t.Fatalf("sim: %v", err)
	}
	return done, received
}

func TestHandshakeAndTransfer(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 64 << 10})
	done, received := runTransfer(t, n, Config{}, 500<<10, 10*time.Second)
	if received != 500<<10 {
		t.Fatalf("received %d bytes, want %d", received, 500<<10)
	}
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	// 500 KB over 10 Mbps is ~0.4 s plus slow start; allow generous slack.
	if done > 3*time.Second {
		t.Fatalf("transfer too slow: %v", done)
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	link := netem.LinkConfig{RateBps: netem.Mbps(8), Delay: 10 * time.Millisecond, QueueBytes: 80 << 10}
	n := testNet(t, link)
	total := 12 << 20
	done, received := runTransfer(t, n, Config{SendBufBytes: 512 << 10, RecvBufBytes: 512 << 10}, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
	rate := float64(total*8) / done.Seconds() / 1e6
	if rate < 6.0 {
		t.Fatalf("throughput %.2f Mbps, want at least 6 Mbps on an 8 Mbps link", rate)
	}
}

func TestTransferWithLoss(t *testing.T) {
	link := netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 10 * time.Millisecond, QueueBytes: 128 << 10, LossRate: 0.01}
	n := testNet(t, link)
	total := 1 << 20
	done, received := runTransfer(t, n, Config{}, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes under 1%% loss", received, total)
	}
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
}

func TestSmallReceiveWindowLimitsThroughput(t *testing.T) {
	// 2 Mbps, 150 ms RTT "3G" path: BDP is ~37.5 KB. A 16 KB receive buffer
	// must keep throughput well below the link rate.
	link := netem.LinkConfig{RateBps: netem.Mbps(2), Delay: 75 * time.Millisecond, QueueBytes: 512 << 10}
	n := testNet(t, link)
	total := 256 << 10
	cfg := Config{RecvBufBytes: 16 << 10, SendBufBytes: 256 << 10, WindowScale: -1}
	done, received := runTransfer(t, n, cfg, total, 60*time.Second)
	if received < total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
	rate := float64(total*8) / done.Seconds() / 1e6
	// Window-limited throughput: 16 KB per 150 ms RTT is ~0.87 Mbps.
	if rate > 1.4 {
		t.Fatalf("throughput %.2f Mbps should be window-limited below 1.4 Mbps", rate)
	}
}

func TestGracefulClose(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond, QueueBytes: 64 << 10})
	cfg := Config{}

	var serverEp *Endpoint
	_, err := Listen(n.Server, 80, cfg, func(ep *Endpoint, _ *packet.Segment) {
		serverEp = ep
		ep.OnReadable = func() {
			for len(ep.Read(4096)) > 0 {
			}
			if ep.EOF() {
				ep.Close()
			}
		}
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, cfg, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	client.OnEstablished = func() {
		client.Write([]byte("hello, multipath world"))
		client.Close()
	}
	if err := n.Sim.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED", client.State())
	}
	if serverEp == nil || serverEp.State() != StateClosed {
		t.Fatalf("server state = %v, want CLOSED", serverEp.State())
	}
	if client.Err() != nil {
		t.Fatalf("client terminal error: %v", client.Err())
	}
}

func TestConnectionRefusedRST(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond})
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 9999}, Config{}, nil)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := n.Sim.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if client.State() != StateClosed {
		t.Fatalf("client state = %v, want CLOSED after RST", client.State())
	}
	if client.Err() == nil {
		t.Fatal("expected a terminal error after connection refused")
	}
}

func TestRTTEstimate(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 25 * time.Millisecond, QueueBytes: 64 << 10})
	done, _ := runTransfer(t, n, Config{}, 64<<10, 10*time.Second)
	if done == 0 {
		t.Fatal("transfer did not complete")
	}
	// RTT is 50 ms propagation plus queueing; the estimate should be in a
	// sane band.
	// (Validated indirectly through completion; direct SRTT access tested in
	// endpoint_more_test.go.)
}

// TestSharedStoreOldestPayloadRef drives an endpoint attached to an external
// send store the way an MPTCP subflow is driven, with a reinjection-style
// chunk that references bytes below those of a chunk queued before it. The
// endpoint must report the lowest referenced offset while any chunk is live,
// nothing once all are acknowledged, and send exactly the referenced bytes.
func TestSharedStoreOldestPayloadRef(t *testing.T) {
	n := testNet(t, netem.LinkConfig{RateBps: netem.Mbps(10), Delay: 5 * time.Millisecond})
	var got []byte
	if _, err := Listen(n.Server, 80, Config{}, func(ep *Endpoint, _ *packet.Segment) {
		ep.OnReadable = func() { got = append(got, ep.Read(64<<10)...) }
	}); err != nil {
		t.Fatal(err)
	}
	client, err := Dial(n.Client.Interfaces()[0], packet.Endpoint{Addr: n.ServerAddr(0), Port: 80}, Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const mss = 1000
	store := buffer.NewByteQueue(0)
	data := make([]byte, 10*mss)
	for i := range data {
		data[i] = byte(i*13 + i>>8)
	}
	store.Append(data)
	client.AttachSendStore(store)
	if err := n.Sim.RunUntil(100 * time.Millisecond); err != nil || !client.IsEstablished() {
		t.Fatalf("not established: %v", err)
	}
	if _, ok := client.OldestPayloadRef(); ok {
		t.Fatal("an endpoint without chunks references nothing")
	}
	n.Paths[0].SetDown(true) // keep every chunk unacknowledged
	for _, off := range []uint64{5 * mss, 0, 8 * mss} {
		if !client.SendChunk(off, mss, nil) {
			t.Fatalf("chunk at %d rejected", off)
		}
	}
	if off, ok := client.OldestPayloadRef(); !ok || off != 0 {
		t.Fatalf("OldestPayloadRef = %d, %v; want 0 (the chunk queued below an earlier one)", off, ok)
	}
	n.Paths[0].SetDown(false)
	if err := n.Sim.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if off, ok := client.OldestPayloadRef(); ok {
		t.Fatalf("all chunks acknowledged, but OldestPayloadRef = %d", off)
	}
	want := append(append(append([]byte(nil), data[5*mss:6*mss]...), data[:mss]...), data[8*mss:9*mss]...)
	if !bytes.Equal(got, want) {
		t.Fatalf("server received %d bytes, want the %d referenced ones in chunk order", len(got), len(want))
	}
}
