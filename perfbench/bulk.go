package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"mptcpgo"
	"mptcpgo/internal/experiments"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
)

// The bulk workload: clients dual-homed to one server over the paper's
// Fig. 6(b) pair of paths, each uploading a cyclic pattern in a closed loop
// (the sender writes whenever buffer space frees) while the server drains
// and verifies every byte.

const (
	patternLen = 64 << 10
	bulkPort   = 5000
	// bulkStride offsets each client's position in the pattern so that
	// streams delivered to the wrong connection fail verification.
	bulkStride = 4099
	// bulkSlice is the simulated-time slice a traced run advances the
	// clock by between timing reads.
	bulkSlice = 10 * time.Millisecond
)

var (
	gigabitPath = mptcpgo.LinkConfig{RateMbps: 1000, Delay: 250 * time.Microsecond, QueueBytes: 256 << 10}
	fastEthPath = mptcpgo.LinkConfig{RateMbps: 100, Delay: 250 * time.Microsecond, QueueBytes: 128 << 10}
)

// makePattern derives the upload pattern from the seed (splitmix64).
func makePattern(seed uint64) []byte {
	p := make([]byte, patternLen)
	x := seed
	for i := 0; i < len(p); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8; j++ {
			p[i+j] = byte(z >> (8 * j))
		}
	}
	return p
}

// patternMatches reports whether data equals the cyclic pattern starting at
// stream offset off.
func patternMatches(pattern []byte, off uint64, data []byte) bool {
	for len(data) > 0 {
		pos := int(off % uint64(len(pattern)))
		n := len(pattern) - pos
		if n > len(data) {
			n = len(data)
		}
		if !bytes.Equal(data[:n], pattern[pos:pos+n]) {
			return false
		}
		data, off = data[n:], off+uint64(n)
	}
	return true
}

// bulkSpans accumulates a traced bulk run's boundary timings. Child time is
// netem send time spent inside a Write or ReadInto span.
type bulkSpans struct {
	sendNs, sends         int64
	writeNs, writeChildNs int64
	writeBytes            int64
	readNs, readChildNs   int64
	readBytes             int64
	stepNs                int64
	inWrite, inRead       bool
}

// timedSender wraps an interface's link so every Link.Send is timed.
type timedSender struct {
	link  netem.Sender
	spans *bulkSpans
}

func (t *timedSender) Send(seg *packet.Segment) {
	t0 := time.Now()
	t.link.Send(seg)
	d := int64(time.Since(t0))
	s := t.spans
	s.sendNs += d
	s.sends++
	if s.inWrite {
		s.writeChildNs += d
	}
	if s.inRead {
		s.readChildNs += d
	}
}

// attachTimedSenders wraps the transmit side of every interface in net.
func attachTimedSenders(net *mptcpgo.Network, spans *bulkSpans) {
	in := net.Internal()
	for _, name := range in.HostNames() {
		for _, ifc := range in.Host(name).Interfaces() {
			p := ifc.Path()
			if p == nil {
				continue
			}
			link := p.LinkAB()
			if ifc == p.B() {
				link = p.LinkBA()
			}
			ifc.AttachSender(&timedSender{link: link, spans: spans})
		}
	}
}

// bulkConn is one client's upload and the server side that verifies it.
type bulkConn struct {
	pattern []byte
	base    uint64
	spans   *bulkSpans

	client, server *mptcpgo.Conn
	buf            []byte
	sent, recv     uint64
	corruptAt      int64 // first stream offset that failed verification, -1 if none
	pumping        bool
}

func (a *bulkConn) pump() {
	if a.pumping {
		return
	}
	a.pumping = true
	defer func() { a.pumping = false }()
	for {
		off := (a.base + a.sent) % patternLen
		chunk := a.pattern[off:]
		var n int
		if s := a.spans; s != nil {
			s.inWrite = true
			t0 := time.Now()
			n = a.client.Write(chunk)
			s.writeNs += int64(time.Since(t0))
			s.inWrite = false
			s.writeBytes += int64(n)
		} else {
			n = a.client.Write(chunk)
		}
		if n == 0 {
			return
		}
		a.sent += uint64(n)
	}
}

func (a *bulkConn) accept(c *mptcpgo.Conn) {
	a.server = c
	c.OnReadable = a.drain
}

func (a *bulkConn) drain() {
	for {
		var n int
		if s := a.spans; s != nil {
			s.inRead = true
			t0 := time.Now()
			n = a.server.ReadInto(a.buf)
			s.readNs += int64(time.Since(t0))
			s.inRead = false
			s.readBytes += int64(n)
		} else {
			n = a.server.ReadInto(a.buf)
		}
		if n == 0 {
			return
		}
		a.check(a.buf[:n])
	}
}

// check verifies the next bytes read from the stream against the pattern.
func (a *bulkConn) check(data []byte) {
	if a.corruptAt < 0 && !patternMatches(a.pattern, a.base+a.recv, data) {
		a.corruptAt = int64(a.recv)
	}
	a.recv += uint64(len(data))
}

// dataSubflows counts the client subflows that carried payload.
func (a *bulkConn) dataSubflows() int {
	n := 0
	for _, sf := range a.client.Subflows() {
		if sf.Endpoint().Stats().BytesSent > 0 {
			n++
		}
	}
	return n
}

// retransmits sums retransmitted segments over both ends' subflows.
func (a *bulkConn) retransmits() uint64 {
	var n uint64
	for _, c := range []*mptcpgo.Conn{a.client, a.server} {
		if c == nil {
			continue
		}
		for _, sf := range c.Subflows() {
			n += sf.Endpoint().Stats().Retransmissions
		}
	}
	return n
}

// buildBulk is the bulk workload's set-up: the topology, one listener and
// one dialed connection per client. spans, when non-nil, wraps every
// interface's link in a timing sender first.
func buildBulk(sh shape, seed uint64, pattern []byte, spans *bulkSpans) (*mptcpgo.Network, []*bulkConn, error) {
	topo := mptcpgo.NewTopology(seed)
	for i := 0; i < sh.BulkClients; i++ {
		c := fmt.Sprintf("client%d", i)
		topo.Connect(c, "server", mptcpgo.Link{Name: c + "-gbe", AtoB: gigabitPath})
		topo.Connect(c, "server", mptcpgo.Link{Name: c + "-fe", AtoB: fastEthPath})
	}
	net, err := topo.Build()
	if err != nil {
		return nil, nil, err
	}
	if spans != nil {
		attachTimedSenders(net, spans)
	}
	conns := make([]*bulkConn, sh.BulkClients)
	for i := range conns {
		a := &bulkConn{pattern: pattern, base: uint64(i * bulkStride), spans: spans,
			buf: make([]byte, patternLen), corruptAt: -1}
		conns[i] = a
		port := uint16(bulkPort + i)
		if _, err := net.Listen("server", port, mptcpgo.DefaultConfig(), a.accept); err != nil {
			return nil, nil, err
		}
		a.client, err = net.Dial(fmt.Sprintf("client%d", i), fmt.Sprintf("server:%d", port), mptcpgo.WithInterface(0))
		if err != nil {
			return nil, nil, err
		}
		a.client.OnWritable = a.pump
	}
	return net, conns, nil
}

// bulkSetup times one set-up of the bulk workload.
func bulkSetup(sh shape, seed uint64) (time.Duration, error) {
	pattern := makePattern(seed)
	start := time.Now()
	_, _, err := buildBulk(sh, seed, pattern, nil)
	return time.Since(start), err
}

// runBulk builds the workload, runs the uploads for sh.BulkSim of simulated
// time and returns the verified outcome. A traced run (obs non-nil) times
// the layer boundaries into obs.spans.
func runBulk(sh shape, seed uint64, obs *traceObs) (*outcome, error) {
	var spans *bulkSpans
	if obs != nil {
		spans = obs.spans
	}
	pattern := makePattern(seed)
	start := time.Now()
	net, conns, err := buildBulk(sh, seed, pattern, spans)
	if err != nil {
		return nil, err
	}
	o := &outcome{attempted: sh.BulkClients}
	for _, a := range conns {
		a.pump()
	}
	if spans == nil {
		err = net.RunUntil(sh.BulkSim)
	} else {
		for t := time.Duration(0); err == nil && t < sh.BulkSim; {
			t = min(t+bulkSlice, sh.BulkSim)
			t0 := time.Now()
			err = net.RunUntil(t)
			spans.stepNs += int64(time.Since(t0))
		}
	}
	if err != nil {
		return nil, err
	}
	res, err := bulkResult(net, seed, conns, o)
	if err != nil {
		return nil, err
	}
	if err := o.encodeResult(res, start); err != nil {
		return nil, err
	}
	if spans != nil {
		o.counts["sim.step_s"] = float64(spans.stepNs) / 1e9
		o.counts["netem.send_ns"] = float64(spans.sendNs) / float64(max(spans.sends, 1))
		o.counts["core.write_ns_per_KB"] = float64(spans.writeNs-spans.writeChildNs) / (float64(max(spans.writeBytes, 1)) / 1024)
		o.counts["core.read_ns_per_KB"] = float64(spans.readNs-spans.readChildNs) / (float64(max(spans.readBytes, 1)) / 1024)
	}
	return o, nil
}

// bulkResult checks every connection, fills o's deterministic figures and
// renders them as a Result whose bytes identify the run's behaviour.
func bulkResult(net *mptcpgo.Network, seed uint64, conns []*bulkConn, o *outcome) (*mptcpgo.Result, error) {
	in := net.Internal()
	o.events = in.Host("server").Sim().Processed
	var segments, drops uint64
	for _, p := range in.Paths {
		for _, l := range []*netem.Link{p.LinkAB(), p.LinkBA()} {
			st := l.Stats()
			segments += st.SentPackets
			drops += st.DroppedQueue + st.DroppedRandom
		}
	}
	t := experiments.NewTable("bulk uploads",
		"client", "written", "read", "subflows", "data subflows", "reinject", "retransmits", "error")
	var read, reinject, rtx uint64
	var errs []error
	for i, a := range conns {
		errText := "-"
		if e := a.client.Err(); e != nil {
			errText = e.Error()
		}
		nData := a.dataSubflows()
		st := a.client.Stats()
		t.AddRow(fmt.Sprint(i), fmt.Sprint(a.sent), fmt.Sprint(a.recv), fmt.Sprint(len(a.client.Subflows())),
			fmt.Sprint(nData), fmt.Sprint(st.Reinjections), fmt.Sprint(a.retransmits()), errText)
		if errText != "-" || a.client.Closed() || a.server == nil || nData < 2 {
			o.failed++
		}
		if err := checkBulkConn(i, a); err != nil {
			errs = append(errs, err)
		}
		read += a.recv
		reinject += st.Reinjections
		rtx += a.retransmits()
	}
	t.AddRow("all", "-", fmt.Sprint(read), "-", "-", fmt.Sprint(reinject), fmt.Sprint(rtx), "-")
	sim := experiments.NewTable("simulator", "events", "segments", "drops")
	sim.AddRow(fmt.Sprint(o.events), fmt.Sprint(segments), fmt.Sprint(drops))
	res := &mptcpgo.Result{ID: "perfbench-bulk", Title: "dual-homed bulk uploads", Seed: seed}
	res.AddTable(t)
	res.AddTable(sim)

	o.completed = o.attempted - o.failed
	o.payload = float64(read)
	o.counts = map[string]float64{
		"netem.segments":    float64(segments),
		"netem.drops":       float64(drops),
		"tcp.retransmits":   float64(rtx),
		"core.reinjections": float64(reinject),
	}
	return res, errors.Join(errs...)
}

// checkBulkConn verifies one connection: every byte read matched the
// pattern, nothing was read that was not written, and both subflows
// carried data.
func checkBulkConn(i int, a *bulkConn) error {
	switch {
	case a.corruptAt >= 0:
		return fmt.Errorf("bulk: client %d: payload mismatch at stream offset %d", i, a.corruptAt)
	case a.recv > a.sent:
		return fmt.Errorf("bulk: client %d: read %d bytes but wrote %d", i, a.recv, a.sent)
	case a.recv == 0:
		return fmt.Errorf("bulk: client %d: nothing delivered", i)
	case a.dataSubflows() < 2:
		return fmt.Errorf("bulk: client %d: %d subflows carried data, want 2", i, a.dataSubflows())
	}
	return nil
}
