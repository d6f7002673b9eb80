package fleet

import (
	"fmt"
	"os"
	"path/filepath"

	"mptcpgo/internal/trace"
)

// Per-shard pcap export. Every shard owns its network outright, so wire
// capture shards the same way the workload does: one classic pcap file per
// shard, named <scenario>-shard<NNN>.pcap, containing every segment any of
// the shard's links accepted (both directions), stamped with the shard's
// simulated time. Capture taps only observe — they write through the unified
// wire codec and never touch the segment — so enabling capture cannot change
// a scenario's merged result.

// CaptureTo taps every link of the shard's materialized network into w.
// Must be called after Materialize and before the shard starts stepping.
func (sh *Shard) CaptureTo(w *trace.PcapWriter) {
	trace.CapturePaths(w, sh.Sim.Now, sh.Net.Paths...)
}

// StartCapture opens the shard's capture file under dir and taps the
// shard's links into it (a no-op when dir is empty). The scenario skeleton
// calls it right after Materialize and closes the file with closeCapture.
func (sh *Shard) StartCapture(dir, scenario string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fleet: shard %d capture: %w", sh.Index, err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-shard%03d.pcap", scenario, sh.Index))
	w, err := trace.NewPcapFile(path)
	if err != nil {
		return fmt.Errorf("fleet: shard %d capture: %w", sh.Index, err)
	}
	sh.Capture = w
	sh.CaptureTo(w)
	return nil
}

// closeCapture flushes and closes the shard's capture file, if open. Close
// is idempotent, so the skeleton both defers it and checks it explicitly.
func (sh *Shard) closeCapture() error {
	if sh.Capture == nil {
		return nil
	}
	return sh.Capture.Close()
}
