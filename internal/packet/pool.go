package packet

import (
	"sync"

	"mptcpgo/internal/pool"
)

// Segment recycling. Every data segment the emulator moves costs, without
// recycling, at least two garbage-collected allocations (the Segment struct
// and its payload buffer) at every hop that copies it. The pool below, with
// the explicit Release calls at the segment sinks (link drops, middlebox
// consumption, post-dispatch on the receiving host), removes both from the
// steady-state hot path.
//
// Ownership discipline (documented in DESIGN.md): a Segment is owned by
// exactly one component at a time. The sender creates it, Interface.Send
// passes it to the link, the link either drops it (releasing it) or delivers
// it to the path; middlebox elements own the segments passed to Process and
// must Release any segment they consume rather than forward; the receiving
// host releases the segment after HandleSegment returns. Nothing may retain
// a Segment — or any slice of a Payload it still owns — past its ownership
// window; to keep data, take the buffer with DetachPayload, Clone the
// segment or copy the bytes out.

var segPool = sync.Pool{New: func() any { return new(Segment) }}

// NewSegment returns a zeroed Segment from the pool. The segment's Options
// slice retains recycled capacity; all other fields are zero.
func NewSegment() *Segment {
	s := segPool.Get().(*Segment)
	s.released = false
	return s
}

// AttachPayload sets the segment payload to buf and records that buf is a
// pool-owned buffer: Release will recycle it. buf must come from pool.Bytes
// or pool.Copy and ownership transfers to the segment.
func (s *Segment) AttachPayload(buf []byte) {
	s.Payload = buf
	s.ownsPayload = true
}

// OwnsPayload reports whether Payload is a pool-owned buffer the segment
// will recycle on Release — and so one a receiver may take over with
// DetachPayload instead of copying its bytes.
func (s *Segment) OwnsPayload() bool { return s.ownsPayload }

// DetachPayload transfers ownership of the payload buffer to the caller:
// Release will no longer recycle it.
func (s *Segment) DetachPayload() []byte {
	b := s.Payload
	s.Payload = nil
	s.ownsPayload = false
	return b
}

// Release returns the segment (and its payload buffer, when pool-owned) to
// the pools. The caller must not touch the segment afterwards. Releasing a
// segment twice panics: it would put the same pointer into the pool twice
// and silently cross-wire two future segments.
func (s *Segment) Release() {
	if s == nil {
		return
	}
	if s.released {
		panic("packet: Segment released twice")
	}
	if s.ownsPayload {
		pool.Recycle(s.Payload)
	}
	opts := s.Options[:0]
	arena := s.optArena
	if arena != nil {
		arena.reset()
	}
	*s = Segment{Options: opts, optArena: arena, released: true}
	segPool.Put(s)
}
