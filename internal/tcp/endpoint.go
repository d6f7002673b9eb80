package tcp

import (
	"errors"
	"fmt"
	"time"

	"mptcpgo/internal/buffer"
	"mptcpgo/internal/cc"
	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/sim"
)

// Endpoint errors.
var (
	ErrClosed         = errors.New("tcp: endpoint closed")
	ErrReset          = errors.New("tcp: connection reset by peer")
	ErrTimeout        = errors.New("tcp: user timeout exceeded")
	ErrNotEstablished = errors.New("tcp: connection not established")
)

// Endpoint is one TCP connection endpoint (or one MPTCP subflow).
type Endpoint struct {
	sim   *sim.Simulator
	host  *netem.Host
	iface *netem.Interface

	local  packet.Endpoint
	remote packet.Endpoint

	cfg   Config
	hooks Hooks
	state State

	ctrl cc.Controller

	// ---- send state ----
	iss          packet.SeqNum
	sndUna       packet.SeqNum
	sndNxt       packet.SeqNum
	sndWnd       int // peer advertised window in bytes (already scaled)
	peerWndShift uint8
	peerMSS      int

	sendQueue          []*chunk // not yet transmitted
	retransQ           []*chunk // transmitted, not fully acknowledged
	queuedBytes        int      // payload bytes across both queues
	queuedPayloadTotal uint64   // cumulative payload bytes ever queued

	// chunkFree and dssFree recycle chunk structs and the DSS options
	// attached to them once their retransmission lifetime ends (fully
	// acknowledged, popped from the queues). Together with the block-pooled
	// send store and the segment/payload pools this makes the steady-state
	// send path allocation-free.
	chunkFree []*chunk
	dssFree   []*packet.DSSOption

	// store holds the payload bytes that chunks reference (see chunk in
	// tcp.go). A plain TCP endpoint owns it (ownStore), created by the first
	// Write and trimmed as the cumulative acknowledgement advances. An MPTCP
	// subflow instead references its connection's send store
	// (AttachSendStore), with chunk offsets in data sequence space; the
	// connection trims that store, using OldestPayloadRef to keep whatever
	// this endpoint may still retransmit.
	store    *buffer.ByteQueue
	ownStore bool
	// lowRefs holds the live chunks whose payload starts below refEnd, the
	// highest store offset any earlier chunk reached: reinjections of
	// ranges that went out before. Every other payload chunk lies above all
	// earlier ones, which is what makes OldestPayloadRef cheap.
	lowRefs []*chunk
	refEnd  uint64

	dupAcks       int
	inRecovery    bool
	recoveryEnd   packet.SeqNum
	recoveryInfl  int // dup-ACK inflation in bytes
	recoveryEpoch int
	peerSackOK    bool
	peerTSOK      bool
	tsRecent      uint32 // peer's most recent timestamp value (to echo)

	rtoTimer          *sim.Timer
	persistTimer      *sim.Timer
	srtt              time.Duration
	rttvar            time.Duration
	baseRTT           time.Duration
	rto               time.Duration
	rtoBackoff        int
	firstUnackedSince time.Duration
	// ccState is the last congestion phase reported through cfg.Probe; only
	// maintained when a probe is attached (endpoints start in slow start).
	ccState CCState

	finQueued bool

	// ---- receive state ----
	irs               packet.SeqNum
	rcvNxt            packet.SeqNum
	rcvWndShift       uint8
	sackRanges        []packet.SACKBlock
	rcvBufMax         int
	rcvBufActual      int
	recvQueue         *buffer.ByteQueue // in-order data awaiting application Read
	recvOfo           buffer.OfoQueue   // out-of-order subflow segments
	finReceived       bool
	lastAdvertisedWnd int
	delackTimer       *sim.Timer
	delackPending     int

	timeWaitTimer *sim.Timer

	// autotuning bookkeeping
	rttDataCount   int
	rttWindowStart time.Duration

	stats Stats
	err   error

	// ---- application callbacks (plain TCP use) ----

	// OnReadable is invoked when new in-order data or EOF becomes available.
	OnReadable func()
	// OnWritable is invoked when send-buffer space frees up.
	OnWritable func()
	// OnEstablished is invoked when the connection reaches ESTABLISHED.
	OnEstablished func()
	// OnClosed is invoked when the endpoint fully closes; err is nil for a
	// graceful close.
	OnClosed func(err error)
}

// newEndpoint builds the shared parts of client and server endpoints.
func newEndpoint(iface *netem.Interface, local, remote packet.Endpoint, cfg Config, hooks Hooks) *Endpoint {
	cfg = cfg.WithDefaults()
	if hooks == nil {
		hooks = NopHooks{}
	}
	host := iface.Host()
	e := &Endpoint{
		sim:       host.Sim(),
		host:      host,
		iface:     iface,
		local:     local,
		remote:    remote,
		cfg:       cfg,
		hooks:     hooks,
		state:     StateClosed,
		peerMSS:   cfg.MSS,
		rcvBufMax: cfg.RecvBufBytes,
		rto:       cfg.InitialRTO,
		recvOfo:   buffer.NewOfoQueue(buffer.AlgRegular),
		sndWnd:    cfg.MSS, // until the peer advertises
	}
	e.rcvBufActual = e.rcvBufMax
	if cfg.AutoTuneBuffers {
		e.rcvBufActual = minInt(e.rcvBufMax, 64<<10)
	}
	e.ctrl = cfg.CongestionControl(cc.Config{MSS: cfg.MSS})
	e.rtoTimer = e.sim.NewTimer(e.onRTO)
	e.persistTimer = e.sim.NewTimer(e.onPersist)
	e.delackTimer = e.sim.NewTimer(e.flushDelayedAck)
	return e
}

// Dial creates a client endpoint bound to iface and starts the three-way
// handshake toward remote. The hooks may be nil for plain TCP.
func Dial(iface *netem.Interface, remote packet.Endpoint, cfg Config, hooks Hooks) (*Endpoint, error) {
	host := iface.Host()
	local := packet.Endpoint{Addr: iface.Addr(), Port: host.AllocatePort()}
	return DialFrom(iface, local, remote, cfg, hooks)
}

// DialFrom is Dial with an explicit local endpoint (used when reopening a
// subflow from a specific port).
func DialFrom(iface *netem.Interface, local, remote packet.Endpoint, cfg Config, hooks Hooks) (*Endpoint, error) {
	e := newEndpoint(iface, local, remote, cfg, hooks)
	if err := e.host.Register(local, remote, e); err != nil {
		return nil, err
	}
	e.iss = packet.SeqNum(e.sim.RNG().Uint32())
	e.sndUna, e.sndNxt = e.iss, e.iss
	e.setState(StateSynSent)
	syn := e.newChunk()
	syn.seq, syn.syn = e.sndNxt, true
	e.sndNxt = e.sndNxt.Add(1)
	e.retransQ = append(e.retransQ, syn)
	e.transmitChunk(syn, false)
	e.armRTO()
	return e, nil
}

// accept creates a server-side endpoint from a received SYN; used by
// Listener.
func accept(iface *netem.Interface, syn *packet.Segment, cfg Config, hooks Hooks) (*Endpoint, error) {
	local := syn.Dst
	remote := syn.Src
	e := newEndpoint(iface, local, remote, cfg, hooks)
	if err := e.host.Register(local, remote, e); err != nil {
		return nil, err
	}
	e.setState(StateSynReceived)
	e.processSYNOptions(syn)
	e.irs = syn.Seq
	e.rcvNxt = syn.Seq.Add(1)
	e.iss = packet.SeqNum(e.sim.RNG().Uint32())
	e.sndUna, e.sndNxt = e.iss, e.iss
	e.hooks.OnSegmentReceived(e, syn)
	synack := e.newChunk()
	synack.seq, synack.syn = e.sndNxt, true
	e.sndNxt = e.sndNxt.Add(1)
	e.retransQ = append(e.retransQ, synack)
	e.transmitChunk(synack, false)
	e.armRTO()
	return e, nil
}

// ---------------------------------------------------------------------------
// Accessors
// ---------------------------------------------------------------------------

// State returns the connection state.
func (e *Endpoint) State() State { return e.state }

// LocalEndpoint returns the local address and port.
func (e *Endpoint) LocalEndpoint() packet.Endpoint { return e.local }

// RemoteEndpoint returns the remote address and port.
func (e *Endpoint) RemoteEndpoint() packet.Endpoint { return e.remote }

// Interface returns the interface the endpoint is bound to.
func (e *Endpoint) Interface() *netem.Interface { return e.iface }

// Sim returns the simulator.
func (e *Endpoint) Sim() *sim.Simulator { return e.sim }

// Config returns the endpoint configuration (after defaulting).
func (e *Endpoint) Config() Config { return e.cfg }

// SetHooks replaces the hook set; intended to be called before the handshake
// completes (listeners call it from their accept callback).
func (e *Endpoint) SetHooks(h Hooks) {
	if h == nil {
		h = NopHooks{}
	}
	e.hooks = h
}

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// Err returns the terminal error, if any.
func (e *Endpoint) Err() error { return e.err }

// EffectiveMSS returns the MSS in use (minimum of ours and the peer's).
func (e *Endpoint) EffectiveMSS() int { return minInt(e.cfg.MSS, e.peerMSS) }

// Cwnd returns the congestion window in bytes.
func (e *Endpoint) Cwnd() int { return e.ctrl.Cwnd() }

// Controller returns the congestion controller (the MPTCP layer uses it for
// Mechanisms 2 and 4).
func (e *Endpoint) Controller() cc.Controller { return e.ctrl }

// SetController replaces the congestion controller. It is intended to be
// called right after a passive open is accepted, before any data has been
// exchanged (the MPTCP listener installs the connection's coupled controller
// this way).
func (e *Endpoint) SetController(ctrl cc.Controller) {
	if ctrl != nil {
		e.ctrl = ctrl
	}
}

// ControllerConfig returns the congestion-control parameters derived from the
// endpoint configuration, for callers constructing a replacement controller.
func (e *Endpoint) ControllerConfig() cc.Config { return cc.Config{MSS: e.cfg.MSS} }

// SRTT returns the smoothed round-trip time estimate.
func (e *Endpoint) SRTT() time.Duration {
	if e.srtt == 0 {
		return e.cfg.InitialRTO / 2
	}
	return e.srtt
}

// BaseRTT returns the minimum RTT observed (the propagation estimate used by
// Mechanism 4's cwnd capping).
func (e *Endpoint) BaseRTT() time.Duration {
	if e.baseRTT == 0 {
		return e.SRTT()
	}
	return e.baseRTT
}

// RTO returns the current retransmission timeout.
func (e *Endpoint) RTO() time.Duration { return e.backedOffRTO() }

// BytesInFlight returns the number of un-acknowledged sequence-space bytes.
func (e *Endpoint) BytesInFlight() int { return int(e.sndNxt.DiffFrom(e.sndUna)) }

// RelativeSndUna returns how many payload bytes of ours the peer has
// cumulatively acknowledged (the subflow-level acknowledgement point as an
// offset from the first payload byte).
func (e *Endpoint) RelativeSndUna() uint32 {
	d := e.sndUna.DiffFrom(e.iss.Add(1))
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// RelativeRcvNxt returns how many in-order payload bytes have been received
// from the peer (offset from the peer's first payload byte).
func (e *Endpoint) RelativeRcvNxt() uint32 {
	d := e.rcvNxt.DiffFrom(e.irs.Add(1))
	if d < 0 {
		return 0
	}
	return uint32(d)
}

// QueuedPayloadBytes returns how many payload bytes have been queued for
// transmission so far (sent or not); the MPTCP layer uses it to compute the
// subflow-relative offset of the next chunk it hands down.
func (e *Endpoint) QueuedPayloadBytes() uint64 { return e.queuedPayloadTotal }

// PeerWindowScale returns the window-scale shift negotiated by the peer.
func (e *Endpoint) PeerWindowScale() uint8 { return e.peerWndShift }

// ISS returns our initial sequence number.
func (e *Endpoint) ISS() packet.SeqNum { return e.iss }

// IRS returns the peer's initial sequence number.
func (e *Endpoint) IRS() packet.SeqNum { return e.irs }

// PeerWindow returns the peer's advertised receive window in bytes.
func (e *Endpoint) PeerWindow() int { return e.sndWnd }

// IsEstablished reports whether the connection is in a state that can carry
// data.
func (e *Endpoint) IsEstablished() bool {
	switch e.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateFinWait2:
		return true
	default:
		return false
	}
}

// SendSpace returns how many payload bytes the endpoint could transmit right
// now given its congestion window, the peer window (unless connection-level
// flow control is in effect) and in-flight data.
func (e *Endpoint) SendSpace() int {
	if !e.IsEstablished() && e.state != StateSynSent && e.state != StateSynReceived {
		return 0
	}
	allowance := e.ctrl.Cwnd() + e.recoveryInfl - e.BytesInFlight()
	if !e.cfg.ConnectionLevelWindow {
		wndSpace := e.sndWnd - e.BytesInFlight()
		if wndSpace < allowance {
			allowance = wndSpace
		}
	}
	if allowance < 0 {
		allowance = 0
	}
	return allowance
}

// SendBufferSpace returns how many more payload bytes Write will accept.
func (e *Endpoint) SendBufferSpace() int {
	limit := e.effectiveSendBuf()
	space := limit - e.queuedBytes
	if space < 0 {
		space = 0
	}
	return space
}

// QueuedBytes returns payload bytes held in the send path (sent-unacked plus
// unsent) — the sender-side memory footprint used by the Fig. 5 experiment.
func (e *Endpoint) QueuedBytes() int { return e.queuedBytes }

// ReceiveQueuedBytes returns payload bytes held in the receive path (in-order
// unread plus out-of-order).
func (e *Endpoint) ReceiveQueuedBytes() int {
	n := e.recvOfo.Bytes()
	if e.recvQueue != nil {
		n += e.recvQueue.Len()
	}
	return n
}

func (e *Endpoint) effectiveSendBuf() int {
	if !e.cfg.AutoTuneBuffers {
		return e.cfg.SendBufBytes
	}
	// Autotuning: allow roughly two congestion windows of data, within the
	// configured maximum.
	want := 2 * e.ctrl.Cwnd()
	if want < 16<<10 {
		want = 16 << 10
	}
	return minInt(want, e.cfg.SendBufBytes)
}

// ---------------------------------------------------------------------------
// Application API (plain TCP)
// ---------------------------------------------------------------------------

// Write queues application data for transmission and returns how many bytes
// were accepted (bounded by send-buffer space). It never blocks. Write is for
// plain TCP: an endpoint attached to an MPTCP send store accepts nothing.
func (e *Endpoint) Write(data []byte) int {
	if e.state == StateClosed || e.finQueued || e.err != nil {
		return 0
	}
	if e.store == nil {
		e.store, e.ownStore = buffer.NewByteQueue(0), true
	}
	if !e.ownStore {
		return 0
	}
	space := e.SendBufferSpace()
	if space <= 0 {
		return 0
	}
	if len(data) > space {
		data = data[:space]
	}
	mss := e.EffectiveMSS()
	accepted := len(data)
	// One copy into the send store; chunks reference MSS-sized ranges of it.
	off := e.store.TailOffset()
	e.store.Append(data)
	for n := accepted; n > 0; {
		l := minInt(mss, n)
		c := e.newChunk()
		c.payOff, c.payLen = off, l
		e.enqueueChunk(c)
		off += uint64(l)
		n -= l
	}
	e.output()
	return accepted
}

// AttachSendStore makes the endpoint reference payload in q, the send store
// of the MPTCP connection it is a subflow of, instead of holding its own
// copy. The owner keeps every byte that chunks queued through SendChunk
// reference until OldestPayloadRef has moved past it.
func (e *Endpoint) AttachSendStore(q *buffer.ByteQueue) {
	e.store, e.ownStore = q, false
}

// OldestPayloadRef returns the lowest store offset that a live chunk of this
// endpoint references — bytes it may still (re)transmit — and false when it
// references none. A closed endpoint references nothing.
func (e *Endpoint) OldestPayloadRef() (uint64, bool) {
	if e.state == StateClosed {
		return 0, false
	}
	var low uint64
	found := false
	if c := firstPayloadChunk(e.retransQ); c != nil {
		low, found = c.payOff, true
	} else if c := firstPayloadChunk(e.sendQueue); c != nil {
		low, found = c.payOff, true
	}
	for _, c := range e.lowRefs {
		if !found || c.payOff < low {
			low, found = c.payOff, true
		}
	}
	return low, found
}

// firstPayloadChunk returns the first chunk of q that carries payload; only
// the SYN and FIN chunks carry none, so the scan is short.
func firstPayloadChunk(q []*chunk) *chunk {
	for _, c := range q {
		if c.payLen > 0 {
			return c
		}
	}
	return nil
}

// SendChunk queues exactly one pre-segmented chunk: the n bytes at offset off
// of the attached send store, with an accompanying option (for MPTCP, the
// chunk's DSS mapping; opt may be nil). Nothing is copied — the chunk refers
// to the store until it is transmitted. It returns false if the chunk does
// not fit the send buffer; the test deliberately lets a chunk through when
// both queues are empty so a sender can always make progress (the MPTCP
// layer sizes chunks to the connection-level window).
//
// Ownership of opt transfers to the endpoint in all cases: on success it is
// recycled when the chunk's retransmission lifetime ends, on failure
// immediately — callers must not touch the option after the call either way.
func (e *Endpoint) SendChunk(off uint64, n int, opt packet.Option) bool {
	if e.state == StateClosed || e.finQueued || e.err != nil ||
		(n > e.SendBufferSpace() && len(e.sendQueue)+len(e.retransQ) > 0) {
		if d, isDSS := opt.(*packet.DSSOption); isDSS {
			e.recycleDSS(d)
		}
		return false
	}
	c := e.newChunk()
	c.payOff, c.payLen = off, n
	if opt != nil {
		c.opts = append(c.opts[:0], opt)
		c.ownsOpts = true
	}
	e.enqueueChunk(c)
	e.output()
	return true
}

// Read removes and returns up to max bytes of in-order received data (plain
// TCP applications). It returns nil when nothing is buffered.
func (e *Endpoint) Read(max int) []byte {
	if e.recvQueue == nil || e.recvQueue.Len() == 0 {
		return nil
	}
	data := e.recvQueue.Pop(max)
	e.maybeSendWindowUpdate()
	return data
}

// ReadableBytes returns the number of bytes Read would return.
func (e *Endpoint) ReadableBytes() int {
	if e.recvQueue == nil {
		return 0
	}
	return e.recvQueue.Len()
}

// EOF reports whether the peer has closed its sending direction and all data
// has been read.
func (e *Endpoint) EOF() bool {
	return e.finReceived && (e.recvQueue == nil || e.recvQueue.Len() == 0)
}

// Close closes the sending direction: a FIN is queued after any pending data.
func (e *Endpoint) Close() {
	if e.finQueued || e.state == StateClosed {
		return
	}
	e.finQueued = true
	fin := e.newChunk()
	fin.fin = true
	e.enqueueChunk(fin)
	e.output()
}

// Abort sends a RST and tears the connection down immediately.
func (e *Endpoint) Abort() {
	if e.state == StateClosed {
		return
	}
	rst := e.makeSegment(packet.FlagRST|packet.FlagACK, e.sndNxt, nil, nil)
	e.sendSegment(rst, false)
	e.teardown(ErrClosed)
}

// SendAck emits an immediate pure acknowledgement (the MPTCP layer uses it to
// push DATA_ACK updates and DATA_FIN without waiting for data).
func (e *Endpoint) SendAck() {
	if e.state == StateClosed || e.state == StateSynSent {
		return
	}
	e.cancelDelayedAck()
	seg := e.makeSegment(packet.FlagACK, e.sndNxt, nil, nil)
	e.sendSegment(seg, false)
}

// SendReset aborts only this endpoint with a RST without reporting an
// application error (used when MPTCP resets a single subflow, §3.4).
func (e *Endpoint) SendReset() {
	if e.state == StateClosed {
		return
	}
	rst := e.makeSegment(packet.FlagRST|packet.FlagACK, e.sndNxt, nil, nil)
	e.sendSegment(rst, false)
	e.teardown(nil)
}

// ---------------------------------------------------------------------------
// Internal helpers shared across files
// ---------------------------------------------------------------------------

func (e *Endpoint) setState(s State) {
	if s == e.state {
		return
	}
	old := e.state
	e.state = s
	e.hooks.OnStateChange(e, old, s)
	if s == StateEstablished && e.OnEstablished != nil {
		e.OnEstablished()
	}
}

func (e *Endpoint) enqueueChunk(c *chunk) {
	if c.payLen > 0 {
		if c.payOff < e.refEnd {
			e.trackLowRef(c)
		}
		e.refEnd = max(e.refEnd, c.payOff+uint64(c.payLen))
	}
	e.sendQueue = append(e.sendQueue, c)
	e.queuedBytes += c.payLen
	e.queuedPayloadTotal += uint64(c.payLen)
}

// trackLowRef records a chunk that references bytes below an earlier chunk's.
func (e *Endpoint) trackLowRef(c *chunk) {
	c.lowRef = true
	e.lowRefs = append(e.lowRefs, c)
}

// popChunk removes and returns the head of a chunk queue via the shared
// compacting drain (see buffer.CompactPrefix); batch drains compact once
// for the whole batch instead.
func popChunk(q []*chunk) ([]*chunk, *chunk) {
	c := q[0]
	return buffer.CompactPrefix(q, 1), c
}

// chunkFreeCap and dssFreeCap bound the per-endpoint free lists; a 256 KiB
// send buffer holds at most ~180 MSS chunks, so these caps cover the deepest
// configured windows with headroom while keeping idle endpoints small.
const (
	chunkFreeCap = 512
	dssFreeCap   = 512
)

// newChunk returns a zeroed chunk, recycled from the endpoint's free list
// when possible (the opts slice retains its capacity across reuses).
func (e *Endpoint) newChunk() *chunk {
	if n := len(e.chunkFree); n > 0 {
		c := e.chunkFree[n-1]
		e.chunkFree[n-1] = nil
		e.chunkFree = e.chunkFree[:n-1]
		return c
	}
	return &chunk{}
}

// freeChunk ends a chunk's retransmission lifetime: option objects the chunk
// owns go back to their free lists, and the chunk itself is zeroed and
// retained for reuse. Callers must not touch the chunk afterwards.
func (e *Endpoint) freeChunk(c *chunk) {
	if c.lowRef {
		for i, l := range e.lowRefs {
			if l == c {
				last := len(e.lowRefs) - 1
				e.lowRefs[i], e.lowRefs[last] = e.lowRefs[last], nil
				e.lowRefs = e.lowRefs[:last]
				break
			}
		}
	}
	if c.ownsOpts {
		for _, o := range c.opts {
			if d, ok := o.(*packet.DSSOption); ok {
				e.recycleDSS(d)
			}
		}
	}
	for i := range c.opts {
		c.opts[i] = nil
	}
	opts := c.opts[:0]
	*c = chunk{opts: opts}
	if len(e.chunkFree) < chunkFreeCap {
		e.chunkFree = append(e.chunkFree, c)
	}
}

// NewDSSOption returns a zeroed DSS option from the endpoint's free list.
// Ownership transfers to the endpoint when the option is attached to a chunk
// via SendChunk; the endpoint recycles it once the chunk's data has
// been fully acknowledged. Callers must not retain the pointer beyond the
// SendChunk call.
func (e *Endpoint) NewDSSOption() *packet.DSSOption {
	if n := len(e.dssFree); n > 0 {
		d := e.dssFree[n-1]
		e.dssFree[n-1] = nil
		e.dssFree = e.dssFree[:n-1]
		return d
	}
	return &packet.DSSOption{}
}

func (e *Endpoint) recycleDSS(d *packet.DSSOption) {
	*d = packet.DSSOption{}
	if len(e.dssFree) < dssFreeCap {
		e.dssFree = append(e.dssFree, d)
	}
}

// teardown releases host resources and reports the terminal error.
func (e *Endpoint) teardown(err error) {
	if e.state == StateClosed && e.err != nil {
		return
	}
	if err != nil && e.err == nil {
		e.err = err
	}
	e.rtoTimer.Stop()
	e.persistTimer.Stop()
	e.delackTimer.Stop()
	if e.timeWaitTimer != nil {
		e.timeWaitTimer.Stop()
	}
	e.host.Unregister(e.local, e.remote)
	if e.ownStore {
		// Nothing can be sent any more: hand the payload blocks back.
		e.store.Reset(e.store.TailOffset())
	}
	e.setState(StateClosed)
	if e.OnClosed != nil {
		cb := e.OnClosed
		e.OnClosed = nil
		cb(err)
	}
}

func (e *Endpoint) String() string {
	return fmt.Sprintf("tcp(%v->%v %v)", e.local, e.remote, e.state)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
