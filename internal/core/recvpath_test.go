package core

import "testing"

// TestOfoBytesPerSubflowExact checks the per-subflow out-of-order byte
// counts the PerSubflowReceiveWindow ablation charges against each
// subflow's window: duplicates, overlaps and bytes the in-order path
// overtakes must not leave a residue, so once the queue drains every count
// is back to 0.
func TestOfoBytesPerSubflowExact(t *testing.T) {
	const mss = 1448
	r := newReceiveRig(t)
	c := r.conn
	check := func(step string) {
		t.Helper()
		sum := 0
		for _, s := range c.subflows {
			if s.ofoBytes < 0 {
				t.Fatalf("%s: subflow %d counts %d out-of-order bytes", step, s.id, s.ofoBytes)
			}
			sum += s.ofoBytes
		}
		if sum != c.ofo.Bytes() {
			t.Fatalf("%s: subflows count %d out-of-order bytes, the queue holds %d", step, sum, c.ofo.Bytes())
		}
	}
	base := r.nextDSN
	// [base+mss, base+2mss) on subflow 1 waits for the gap.
	r.deliver(1, r.segment(1, base+mss, mss))
	check("first out-of-order segment")
	// The same range again on subflow 0: a connection-level duplicate.
	r.deliver(0, r.segment(0, base+mss, mss))
	check("duplicate")
	// Half overlapping the queued range, half beyond it.
	r.deliver(0, r.segment(0, base+mss+mss/2, mss))
	check("overlap")
	if want := mss + mss/2; c.ofo.Bytes() != want {
		t.Fatalf("queue holds %d bytes, want %d", c.ofo.Bytes(), want)
	}
	// An in-order segment that overtakes the first queued item and the
	// head of the second: the queue discards the one and trims the other.
	r.deliver(0, r.segment(0, base, 2*mss+100))
	check("drain")
	if c.ofo.Bytes() != 0 {
		t.Fatalf("queue still holds %d bytes", c.ofo.Bytes())
	}
	for _, s := range c.subflows {
		if s.ofoBytes != 0 {
			t.Fatalf("subflow %d still counts %d out-of-order bytes after the queue drained", s.id, s.ofoBytes)
		}
	}
	if got, want := c.ReadInto(make([]byte, 4*mss)), 2*mss+mss/2; got != want {
		t.Fatalf("read %d bytes, want %d", got, want)
	}
}
