package core

import (
	"time"

	"mptcpgo/internal/netem"
	"mptcpgo/internal/packet"
	"mptcpgo/internal/probe"
	"mptcpgo/internal/tcp"
)

// Manager is the per-host MPTCP stack: it owns the token table used to
// demultiplex MP_JOINs and to guarantee token uniqueness, and it creates
// client connections and listeners.
type Manager struct {
	host   *netem.Host
	tokens *TokenTable
	// conns lists the tracked connections in the order they were added.
	// A removed connection leaves a nil slot (each connection knows its
	// slot, so removal is O(1)); the slice is compacted, order kept, once
	// more than half of it is empty and whenever Connections is called.
	conns []*Connection
	holes int

	// probeRec, when non-nil, records flight-recorder events for this
	// host's connections under global member index probeMember. Connection
	// IDs are assigned per manager in dial order (nextConnID), which is
	// deterministic per member and independent of shard layout.
	probeRec    *probe.Recorder
	probeMember int
	nextConnID  int32
}

// NewManager creates the MPTCP stack for a host.
func NewManager(host *netem.Host) *Manager {
	return &Manager{host: host, tokens: NewTokenTable()}
}

// Host returns the underlying host.
func (m *Manager) Host() *netem.Host { return m.host }

// SetProbe attaches a flight recorder: every connection dialed afterwards
// records events and samples under the given global member index. A nil
// recorder (the default) keeps all instrumentation dormant.
func (m *Manager) SetProbe(rec *probe.Recorder, member int) {
	m.probeRec = rec
	m.probeMember = member
}

// Probe returns the attached flight recorder (nil when tracing is off) and
// the member index it records under.
func (m *Manager) Probe() (*probe.Recorder, int) { return m.probeRec, m.probeMember }

// Tokens exposes the token table (experiments measuring connection-setup
// latency populate it directly).
func (m *Manager) Tokens() *TokenTable { return m.tokens }

// Connections returns the currently tracked connections.
func (m *Manager) Connections() []*Connection {
	m.compact()
	return m.conns
}

// RemoveLocalInterface withdraws an interface from every tracked connection
// (mid-session interface loss, §3.4): affected subflows are failed, their data
// reinjected, and REMOVE_ADDR sent to peers over surviving subflows. The
// fault-injection layer drives this to emulate mobility churn.
func (m *Manager) RemoveLocalInterface(ifc *netem.Interface) {
	conns := append([]*Connection(nil), m.Connections()...)
	for _, c := range conns {
		c.RemoveLocalInterface(ifc)
	}
}

// RestoreLocalInterface reacts to an interface returning: clients re-open
// subflows across it, servers re-advertise its address.
func (m *Manager) RestoreLocalInterface(ifc *netem.Interface) {
	conns := append([]*Connection(nil), m.Connections()...)
	for _, c := range conns {
		c.RestoreLocalInterface(ifc)
	}
}

// Dial opens a new (MPTCP or plain TCP) connection from the given local
// interface toward the remote endpoint.
func (m *Manager) Dial(iface *netem.Interface, remote packet.Endpoint, cfg Config) (*Connection, error) {
	c := newConnection(m, cfg, true)
	c.dialCfg.remote = remote
	c.dialCfg.port = remote.Port
	if c.cfg.EnableMPTCP {
		key, token := m.tokens.GenerateUniqueKey(m.host.Sim().RNG())
		c.localKey = key
		c.localToken = token
		c.localIDSN = key.IDSN()
		m.tokens.Insert(token, c)
	}
	s := c.newSubflow(RoleInitial, true)
	scfg := c.cfg.subflowConfig(true)
	scfg.CongestionControl = c.cfg.controllerFactory(c.ccGroup, c.cfg.EnableMPTCP)
	if c.probe != nil {
		scfg.Probe = s
	}
	ep, err := tcp.Dial(iface, remote, scfg, s)
	if err != nil {
		return nil, err
	}
	s.attach(ep)
	c.usedRemote[remote] = true
	m.addConnection(c)
	return c, nil
}

// addConnection starts tracking c.
func (m *Manager) addConnection(c *Connection) {
	c.mgrSlot = int32(len(m.conns))
	m.conns = append(m.conns, c)
}

// removeConnection stops tracking c, leaving a hole in its slot.
func (m *Manager) removeConnection(c *Connection) {
	if c.localToken != 0 {
		m.tokens.Remove(c.localToken)
	}
	if i := int(c.mgrSlot); i < len(m.conns) && m.conns[i] == c {
		m.conns[i] = nil
		m.holes++
		if 2*m.holes > len(m.conns) {
			m.compact()
		}
	}
}

// compact squeezes the holes out of conns, keeping the order.
func (m *Manager) compact() {
	if m.holes == 0 {
		return
	}
	live := m.conns[:0]
	for _, c := range m.conns {
		if c != nil {
			c.mgrSlot = int32(len(live))
			live = append(live, c)
		}
	}
	clear(m.conns[len(live):])
	m.conns, m.holes = live, 0
}

// AcceptCallback is invoked for every new connection a Listener accepts,
// before any data arrives, so the application can install its callbacks.
type AcceptCallback func(*Connection)

// Listener accepts MPTCP (and plain TCP) connections on one port.
type Listener struct {
	mgr      *Manager
	cfg      Config
	port     uint16
	tl       *tcp.Listener
	acceptCb AcceptCallback

	// pending carries the subflow created in HooksFactory to the AcceptFunc
	// that runs immediately afterwards for the same SYN.
	pending *Subflow
	// pendingNew marks whether the pending subflow's connection is new (so
	// the application callback fires exactly once per connection).
	pendingNew bool

	// SetupDurations records the wall-clock time spent processing each
	// received SYN (key generation, token-uniqueness check, HMAC
	// validation); the connection-setup-latency experiment (Figure 10) reads
	// these.
	SetupDurations []time.Duration

	accepted []*Connection
}

// Listen installs an MPTCP listener on the manager's host.
func (m *Manager) Listen(port uint16, cfg Config, acceptCb AcceptCallback) (*Listener, error) {
	cfg = cfg.withDefaults()
	l := &Listener{mgr: m, cfg: cfg, port: port, acceptCb: acceptCb}
	tl, err := tcp.Listen(m.host, port, cfg.subflowConfig(true), l.onAccept)
	if err != nil {
		return nil, err
	}
	tl.HooksFactory = l.hooksForSYN
	l.tl = tl
	return l, nil
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Accepted returns the connections accepted so far.
func (l *Listener) Accepted() []*Connection { return l.accepted }

// Close removes the listener.
func (l *Listener) Close() { l.tl.Close() }

// hooksForSYN inspects a SYN and builds the subflow (and, for MP_CAPABLE,
// the connection) it belongs to. Returning ok=false rejects the SYN.
func (l *Listener) hooksForSYN(syn *packet.Segment) (tcp.Hooks, bool) {
	start := time.Now()
	defer func() { l.SetupDurations = append(l.SetupDurations, time.Since(start)) }()

	l.pending = nil
	l.pendingNew = false

	if join, ok := syn.MPTCPOption(packet.SubMPJoin).(*packet.MPJoinOption); ok && join != nil {
		conn := l.mgr.tokens.Lookup(join.ReceiverToken)
		if conn == nil || conn.closed || !conn.MPTCPActive() {
			return nil, false // unknown token: refuse the subflow
		}
		s := conn.newSubflow(RoleJoin, false)
		s.addrID = join.AddrID
		s.backup = join.Backup
		s.remoteNonce = join.SenderNonce
		s.localNonce = l.mgr.host.Sim().RNG().Uint32()
		l.pending = s
		l.pendingNew = false
		return s, true
	}

	cfg := l.cfg
	c := newConnection(l.mgr, cfg, false)
	c.dialCfg.port = l.port

	if cap, ok := syn.MPTCPOption(packet.SubMPCapable).(*packet.MPCapableOption); ok && cap != nil && cfg.EnableMPTCP {
		// MP_CAPABLE handshake: record the client's key, generate our own
		// and verify its token is unique among established connections
		// (§5.2 — this is the cost Figure 10 measures).
		c.remoteKey = Key(cap.SenderKey)
		c.remoteToken = c.remoteKey.Token()
		c.remoteIDSN = c.remoteKey.IDSN()
		if cap.ChecksumRequired {
			c.cfg.UseDSSChecksum = true
		}
		key, token := l.mgr.tokens.GenerateUniqueKey(l.mgr.host.Sim().RNG())
		c.localKey = key
		c.localToken = token
		c.localIDSN = key.IDSN()
		l.mgr.tokens.Insert(token, c)
		c.mptcpActive = true
	} else {
		// Plain TCP client (or MPTCP disabled): accept as a fallback
		// connection.
		c.mptcpActive = false
	}

	s := c.newSubflow(RoleInitial, false)
	l.mgr.addConnection(c)
	l.pending = s
	l.pendingNew = true
	return s, true
}

// onAccept wires the created endpoint into the pending subflow and hands new
// connections to the application.
func (l *Listener) onAccept(ep *tcp.Endpoint, syn *packet.Segment) {
	s := l.pending
	if s == nil {
		return
	}
	l.pending = nil
	s.attach(ep)
	conn := s.conn
	// Replace the default controller with the connection's (coupled) one;
	// no data has been exchanged yet, so this is safe.
	if conn.MPTCPActive() {
		factory := conn.cfg.controllerFactory(conn.ccGroup, true)
		ep.SetController(factory(ep.ControllerConfig()))
	}
	// Servers advertise their additional addresses so clients behind NATs
	// can open subflows toward them (§3.2).
	if conn.cfg.AdvertiseAddresses && conn.MPTCPActive() && s.role == RoleInitial {
		s.addAddrRepeats = 3
	}
	if l.pendingNew {
		l.accepted = append(l.accepted, conn)
		if l.acceptCb != nil {
			l.acceptCb(conn)
		}
	}
}
