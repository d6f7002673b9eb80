package core

import (
	"mptcpgo/internal/buffer"
	"mptcpgo/internal/packet"
)

// onSubflowData maps in-order subflow payload into the connection-level data
// sequence space using the received DSS mappings, verifying checksums where
// possible, and feeds the shared reassembly queue. buf, when non-nil, is the
// pool buffer holding data; the chunk that ends the payload (all of it, in
// the common one-mapping-per-segment case) is queued in that buffer, and
// true returned, when a queue keeps it. Earlier chunks of a payload split
// across mappings, and fallback data, are copied.
func (c *Connection) onSubflowData(s *Subflow, relSeq uint32, data, buf []byte) (kept bool) {
	if c.closed || len(data) == 0 {
		return false
	}
	if c.Fallback() {
		c.insertData(s, c.fallbackDataSeq(s, uint64(relSeq)), data, nil)
		return false
	}
	for len(data) > 0 {
		m, ok := s.findRxMapping(relSeq)
		if !ok {
			next, found := s.nextRxMappingAfter(relSeq)
			if !found {
				c.handleUnmappedData(s, relSeq, data)
				return false
			}
			// Bytes without a mapping (a coalescing middlebox merged
			// segments and dropped one of the DSS options, §3.3.5): they are
			// acknowledged at the subflow level but not at the data level,
			// so the peer's connection-level retransmission recovers them.
			skip := int(next - relSeq)
			if skip >= len(data) {
				c.stats.UnmappedBytes += uint64(len(data))
				return false
			}
			c.stats.UnmappedBytes += uint64(skip)
			data = data[skip:]
			relSeq += uint32(skip)
			continue
		}
		n := int(m.end() - relSeq)
		if n > len(data) {
			n = len(data)
		}
		chunk := data[:n]
		dataSeq := m.dataSeq + uint64(relSeq-m.subflowOffset)

		// The DSS checksum can only be verified when the mapping's bytes are
		// available in one piece (the common case: one mapping per segment).
		// A length change by a content-modifying middlebox also surfaces
		// here as a mapping/payload mismatch.
		if m.hasChecksum && relSeq == m.subflowOffset && n == m.length {
			wireSeq := c.remoteIDSN + 1 + packet.DataSeq(m.dataSeq)
			want := packet.DSSChecksum(wireSeq, m.subflowOffset, uint16(m.length), chunk)
			if want != m.checksum {
				s.csumFailures++
				c.stats.ChecksumFailures++
				c.onChecksumFailure(s)
				return false
			}
		}

		if n == len(data) {
			// The last chunk of the payload: nothing else refers to the
			// buffer any more (earlier chunks were copied), so hand it on.
			kept = c.insertData(s, dataSeq, chunk, buf)
		} else {
			c.insertData(s, dataSeq, chunk, nil)
		}
		data = data[n:]
		relSeq += uint32(n)
	}
	s.gcRxMappings(relSeq)
	return kept
}

// fallbackDataSeq converts a subflow-relative offset into a data sequence
// number using the implicit mapping anchored when the connection fell back.
func (c *Connection) fallbackDataSeq(s *Subflow, relSeq uint64) uint64 {
	if relSeq < s.fallbackRxBase {
		return c.dataRcvNxt
	}
	return s.fallbackRxAnchor + (relSeq - s.fallbackRxBase)
}

// handleUnmappedData reacts to payload for which no mapping is (yet) known.
// If the subflow has never delivered a mapping and it is the connection's
// only subflow, the path is stripping DSS options entirely and the
// connection falls back to regular TCP (infinite mapping). Otherwise the
// bytes are simply not placed at the data level: they are acknowledged at the
// subflow level but not DATA_ACKed, so the sender's connection-level
// retransmission recovers them (§3.3.5 — this is what a coalescing middlebox
// that discarded one of the mappings causes).
func (c *Connection) handleUnmappedData(s *Subflow, relSeq uint32, data []byte) {
	if len(s.rxMappings) == 0 && len(c.subflows) <= 1 && c.dataRcvNxt == 0 {
		c.enterFallback("data received without a mapping", s)
		c.insertData(s, c.fallbackDataSeq(s, uint64(relSeq)), data, nil)
		return
	}
	c.stats.UnmappedBytes += uint64(len(data))
}

// onChecksumFailure implements the §3.3.6 procedure: reset the subflow if
// others remain, otherwise fall back to regular TCP for the rest of the
// connection (signalling MP_FAIL to the peer).
func (c *Connection) onChecksumFailure(s *Subflow) {
	if len(c.usableSubflows()) > 1 {
		s.failSubflow("dss checksum failure")
		return
	}
	s.sendMPFail = true
	c.enterFallback("dss checksum failure on the only subflow", s)
	// Push the MP_FAIL out immediately.
	s.ep.SendAck()
}

// insertData places a chunk of connection-level data at dataSeq: in-order
// data goes straight to the receive queue, anything else to the shared
// out-of-order queue (§4.3). buf, when non-nil, is the pool buffer holding
// data; insertData reports whether a queue took it over (a duplicate is
// left to the caller).
func (c *Connection) insertData(s *Subflow, dataSeq uint64, data, buf []byte) (kept bool) {
	end := dataSeq + uint64(len(data))
	if end <= c.dataRcvNxt {
		return false // duplicate (e.g. opportunistic retransmission arriving late)
	}
	if dataSeq < c.dataRcvNxt {
		skip := c.dataRcvNxt - dataSeq
		data = data[skip:]
		dataSeq = c.dataRcvNxt
	}
	if dataSeq != c.dataRcvNxt {
		_, stored := c.ofo.Insert(buffer.Item{Seq: dataSeq, Data: data, Buf: buf, Subflow: s.id})
		s.ofoBytes += stored
		return buf != nil
	}
	c.rcvBuf.Push(data, buf)
	c.dataRcvNxt += uint64(len(data))
	run, dropped := c.ofo.PopContiguous(c.dataRcvNxt)
	for _, it := range run {
		c.rcvBuf.Push(it.Data, it.Buf)
		c.dataRcvNxt = it.End()
		c.releaseOfoBytes(it.Subflow, len(it.Data))
	}
	for _, d := range dropped {
		c.releaseOfoBytes(d.Subflow, d.Bytes)
	}
	c.maybeConsumeRemoteDataFin()
	if c.OnReadable != nil {
		c.OnReadable()
	}
	return buf != nil
}

// releaseOfoBytes uncharges n bytes that left the out-of-order queue from
// the subflow they arrived on (if it is still attached).
func (c *Connection) releaseOfoBytes(subflow, n int) {
	for _, s := range c.subflows {
		if s.id == subflow {
			s.ofoBytes -= n
			return
		}
	}
}

// onRemoteDataFIN records the peer's DATA_FIN (the end of its data stream).
func (c *Connection) onRemoteDataFIN(finSeq uint64) {
	if c.remoteDataFin {
		return
	}
	c.remoteDataFin = true
	c.remoteDataFinSeq = finSeq
	c.maybeConsumeRemoteDataFin()
}

// maybeConsumeRemoteDataFin delivers EOF once every byte before the DATA_FIN
// has been received, and acknowledges the DATA_FIN.
func (c *Connection) maybeConsumeRemoteDataFin() {
	if !c.remoteDataFin || c.eofConsumed {
		return
	}
	if c.dataRcvNxt < c.remoteDataFinSeq {
		return
	}
	c.eofConsumed = true
	if !c.Fallback() {
		// The DATA_FIN occupies one data sequence number; acknowledge it.
		c.dataRcvNxt = c.remoteDataFinSeq + 1
		for _, s := range c.usableSubflows() {
			s.ep.SendAck()
			break
		}
	}
	if c.OnReadable != nil {
		c.OnReadable()
	}
	c.checkDone()
}

// sendWindowUpdate advertises the (grown) shared receive window on every
// usable subflow so a sender stalled against connection-level flow control
// resumes promptly.
func (c *Connection) sendWindowUpdate() {
	for _, s := range c.usableSubflows() {
		s.ep.ForceWindowUpdate()
	}
}
